"""Discrete-event simulation kernel.

This is the substrate every other subsystem runs on: simulated hosts, NICs,
transports, RPCs, and the CliqueMap cell itself are all processes scheduled
by the :class:`Simulator` here.

The model follows the classic generator-process style (as popularized by
simpy, re-implemented from scratch): a *process* is a generator that yields
:class:`Event` objects and is resumed when the yielded event triggers.
Simulated time is a float number of seconds.

Scheduling is closure-free on the hot path: every queue entry is a
``(time, seq, fn, args)`` tuple, zero-delay actions bypass the heap through
a same-time FIFO ready-queue, and a wait only its own process can observe
(:meth:`Simulator.delay`, ``Resource.hold``) parks that process on one raw
entry instead of allocating an event. The global execution order is still
exactly sort-by-``(time, seq)`` — the ready-queue is an ordering-preserving
fast path, so a given seed produces the same event sequence as a pure-heap
kernel.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

# What a process "waits on" before its first step has run; lets
# interrupt() cancel the pending start the same way it cancels any
# other pending wake-up (by changing the identity the callback checks).
_PENDING_START = object()

# What Simulator.delay() / Resource.hold() return and a process yields
# back: "my wake-up is already queued" — a raw (time, seq, fn, args) entry
# carrying a wait token, no Event, no callback list. The token check gives
# parked waits the interrupt / stale-wake-up safety event waits have.
PARKED = object()

class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""

class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value supplied to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

class StopSimulation(Exception):
    """Internal: raised to stop :meth:`Simulator.run` at an ``until`` event."""

class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* when :meth:`succeed` or
    :meth:`fail` is called, and is *processed* once its callbacks have run.
    Processes wait on events by yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered",
                 "defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Tuple[Callable, tuple]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        # A failed event with no callbacks re-raises inside run() unless it
        # has been explicitly defused (e.g. fire-and-forget processes).
        self.defused = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event has not been triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(
                f"event already triggered (now={self.sim.now!r})")
        self._triggered = True
        self._ok = True
        self._value = value
        # Inlined sim.call_soon(self._process): a zero-delay ready-queue
        # append — every event trigger in the system passes through here.
        sim = self.sim
        sim._seq += 1
        sim._ready.append((sim._seq, self._process, ()))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed with exception ``exc``."""
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._triggered:
            raise SimulationError(
                f"event already triggered (now={self.sim.now!r})")
        self._triggered = True
        self._ok = False
        self._value = exc
        sim = self.sim
        sim._seq += 1
        sim._ready.append((sim._seq, self._process, ()))
        return self

    def add_callback(self, fn: Callable, *args: Any) -> None:
        """Run ``fn(event, *args)`` when the event is processed.

        If the event has already been processed the callback is scheduled to
        run immediately (at the current simulated time).
        """
        if self.callbacks is None:
            self.sim.call_soon(fn, self, *args)
        else:
            self.callbacks.append((fn, args))

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if not self._ok and not callbacks and not self.defused:
            raise self._value
        for fn, args in callbacks or ():
            fn(self, *args)

class Timeout(Event):
    """An event that triggers ``delay`` seconds in the future.

    Negative delays are validated exactly once, here at scheduling time
    (mirroring :meth:`Simulator._push`), instead of the pre-rewrite
    double check in both the event constructor and the scheduler.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # Inlined Event.__init__ + trigger + Simulator._push: timeouts are
        # the single most allocated event type, so skip the double field
        # initialization and the extra scheduling call frame.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self.defused = False
        if delay < 0:
            raise SimulationError(
                f"cannot schedule {delay!r}s in the past (now={sim.now!r})")
        sim._seq += 1
        if delay == 0:
            sim._ready.append((sim._seq, self._process, ()))
        else:
            heapq.heappush(
                sim._heap, (sim.now + delay, sim._seq, self._process, ()))

    def _process(self) -> None:
        # Timeouts always succeed, so the base class's unhandled-failure
        # bookkeeping is dead weight here.
        callbacks, self.callbacks = self.callbacks, None
        for fn, args in callbacks or ():
            fn(self, *args)

class Process(Event):
    """A running generator process; also an event that triggers on exit.

    The process succeeds with the generator's return value, or fails with
    the exception that escaped it.
    """

    __slots__ = ("_send", "_throw", "_waiting_on", "_token", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise SimulationError("process() requires a generator")
        # The generator's own methods, bound once per process (they hold
        # the generator). A bound method of the process itself is never
        # cached on it: that would make every process a reference cycle
        # only the collector frees.
        self._send = gen.send
        self._throw = gen.throw
        self.name = name or getattr(gen, "__name__", "process")
        # What we are parked on: the awaited event (identity-checked) or
        # the token of a parked wait (Simulator.delay, Resource.hold);
        # cleared by interrupt() so that a late-firing wake-up of either
        # kind cannot double-resume us.
        self._waiting_on: Any = _PENDING_START
        self._token = 0
        sim.call_soon(self._start)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return
        self._waiting_on = None  # invalidate any pending wake-up
        self.sim.call_soon(self._throw_with, Interrupt(cause))

    def _start(self) -> None:
        if self._waiting_on is not _PENDING_START or self._triggered:
            return  # interrupted (or killed) before the first step
        self._step(self._send, None)

    def _on_wait_done(self, event: Event) -> None:
        if event is not self._waiting_on or self._triggered:
            return  # stale wake-up (we were interrupted meanwhile)
        if event._ok:
            self._step(self._send, event._value)
        else:
            event.defused = True
            self._step(self._throw, event._value)

    def _on_wake(self, token: int, value: Any = None,
                 exc: Optional[BaseException] = None) -> None:
        """Resume from a parked wait with ``value`` (or fail it with
        ``exc``)."""
        if token != self._waiting_on or self._triggered:
            return  # stale wake-up (we were interrupted meanwhile)
        if exc is None:
            self._step(self._send, value)
        else:
            self._step(self._throw, exc)

    def _throw_with(self, exc: BaseException) -> None:
        if self._triggered:
            return
        self._step(self._throw, exc)

    def _step(self, advance: Callable[[Any], Any], arg: Any) -> None:
        sim = self.sim
        sim._active = self
        try:
            target = advance(arg)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process died
            # Keep the process's own frames, drop this one: its ``self``
            # (and, through f_back, the caller stack) would make the
            # stored exception a reference cycle.
            self.fail(exc.with_traceback(exc.__traceback__.tb_next))
            return
        finally:
            sim._active = None
        if target is PARKED:
            return  # delay()/hold() already queued our wake-up
        if not isinstance(target, Event):
            self.fail(SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"))
            return
        if target is self:
            self.fail(SimulationError("process cannot wait on itself"))
            return
        self._waiting_on = target
        # Inlined target.add_callback(self._on_wait_done): the bound
        # method lives in the callback list and dies with it.
        cbs = target.callbacks
        if cbs is None:
            sim.call_soon(self._on_wait_done, target)
        else:
            cbs.append((self._on_wait_done, ()))

class Condition(Event):
    """Base for composite events over a set of child events."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._remaining = len(self._events)
        if not self._events:
            self.succeed([])
            return
        child_done = self._child_done  # bound once for the whole fan-out
        for ev in self._events:
            cbs = ev.callbacks
            if cbs is None:
                sim.call_soon(child_done, ev)
            else:
                cbs.append((child_done, ()))

    def _child_done(self, event: Event) -> None:
        raise NotImplementedError

class AllOf(Condition):
    """Triggers when every child has triggered; value is the list of values.

    Fails (with the first failure) if any child fails.
    """

    __slots__ = ()

    def _child_done(self, event: Event) -> None:
        if self._triggered:
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([ev._value for ev in self._events])

class AnyOf(Condition):
    """Triggers when the first child triggers; value is ``(event, value)``.

    Fails if the first child to trigger failed. Later children are defused.
    """

    __slots__ = ()

    def _child_done(self, event: Event) -> None:
        if self._triggered:
            if not event._ok:
                event.defused = True
            return
        if event._ok:
            self.succeed((event, event._value))
        else:
            event.defused = True
            self.fail(event._value)

class FanIn:
    """A parent's completion queue over the children it spawns.

    ``while pending: yield sim.any_of(list(pending))`` registers a fresh
    callback on every child still in flight each time one lands —
    quadratic in the fan-out. Here each child carries one callback for
    life and reports ``(tag, value)`` as it ends; the parent takes one
    child per wait, O(log n) at worst::

        legs = sim.fan_in()
        for view in views:
            legs.spawn(fetch(view), view)
        while legs.pending:
            view, result = yield legs.next()

    A wait is met by the child that ends during it. When children ended
    while the parent was not waiting, it takes the earliest *spawned* of
    them first — the child ``any_of`` over an insertion-ordered
    ``pending`` picked, so a drain moved onto a ``FanIn`` visits its
    children in the order it always did. Also kept from ``AnyOf``: a
    child that raised fails the parent's next wait with that exception
    instead of surfacing as an unhandled process failure, and whatever
    ends after the parent stopped waiting is dropped. One parent waits
    at a time.
    """

    __slots__ = ("sim", "pending", "_spawned", "_landed", "_getter")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Children spawned that the parent has not yet taken.
        self.pending = 0
        self._spawned = 0
        # Heap of (spawn order, tag, child): ended, not yet taken.
        self._landed: List[Tuple[int, Any, Event]] = []
        self._getter: Optional[Event] = None   # the wait no child has met

    def spawn(self, gen: Generator, tag: Any = None,
              name: str = "") -> Process:
        """Start ``gen`` as a child process reporting under ``tag``."""
        child = Process(self.sim, gen, name)
        self._spawned += 1
        child.callbacks.append((self._child_done, (self._spawned, tag)))
        self.pending += 1
        return child

    def next(self) -> Event:
        """An event for the next child: ``(tag, value)``, or the
        exception the child raised."""
        if not self.pending:
            raise SimulationError("FanIn.next() with no child left to take")
        self.pending -= 1
        getter = Event(self.sim)
        if self._landed:
            _order, tag, child = heapq.heappop(self._landed)
            self._hand(getter, tag, child)
        else:
            self._getter = getter
        return getter

    def _child_done(self, child: Event, order: int, tag: Any) -> None:
        if not child._ok:
            child.defused = True    # the parent's wait raises it instead
        getter = self._getter
        if getter is None:
            heapq.heappush(self._landed, (order, tag, child))
        else:
            self._getter = None
            self._hand(getter, tag, child)

    @staticmethod
    def _hand(getter: Event, tag: Any, child: Event) -> None:
        if child._ok:
            getter.succeed((tag, child._value))
        else:
            getter.fail(child._value)

class Simulator:
    """The event loop: a time-ordered queue of ``(time, seq, fn, args)``.

    Two structures back the queue: a binary heap for future entries and a
    FIFO deque (the *ready queue*) for entries at the current time. The
    zero-delay storm of process resumes and event callbacks never touches
    the heap; the run loop interleaves the two by ``(time, seq)`` so the
    observable order is identical to a single sorted queue.
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: list = []
        self._ready: deque = deque()
        self._seq = 0
        self._running = False
        # The process whose generator is executing right now (None between
        # steps): what lets delay() and Resource.hold() park "the caller".
        self._active: Optional[Process] = None
        # Clock taps: periodic observer callbacks fired synchronously as
        # simulated time advances. They never touch the scheduling queue
        # (no sequence numbers, no events), so a tapped run executes the
        # exact same event order as an untapped one — the property the
        # telemetry scraper's seed-for-seed parity guarantee rests on.
        # With no taps registered the run loop pays one float compare
        # per time advance.
        self._taps: list = []                  # [next_at, interval, fn]
        self._next_tap_at: float = float("inf")

    # -- scheduling ------------------------------------------------------

    def _push(self, delay: float, fn: Callable, args: tuple) -> None:
        """Single validation point for all scheduling."""
        if delay < 0:
            # An entry before ``now`` would make simulated time run
            # backwards for everyone already scheduled.
            raise SimulationError(
                f"cannot schedule {delay!r}s in the past (now={self.now!r})")
        self._seq += 1
        if delay == 0:
            self._ready.append((self._seq, fn, args))
        else:
            heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def call_soon(self, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at the current simulated time."""
        self._seq += 1
        self._ready.append((self._seq, fn, args))

    def call_in(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        self._push(delay, fn, args)

    # -- clock taps -------------------------------------------------------

    def add_tap(self, interval: float, fn: Callable[[float], Any],
                first_at: Optional[float] = None) -> list:
        """Register a periodic observer fired as simulated time advances.

        ``fn(tick_time)`` runs synchronously inside the run loop whenever
        time is about to advance past a tick (every ``interval`` seconds,
        first at ``first_at`` or ``now + interval``). ``sim.now`` reads as
        the tick time during the call. Taps are for *observation* —
        sampling metrics, evaluating alert rules — and must not schedule
        events or processes: they consume no scheduling sequence numbers,
        which is what keeps a tapped run's event order and count identical
        to an untapped run of the same seed.

        Returns a handle for :meth:`remove_tap`.
        """
        if interval <= 0:
            raise SimulationError(
                f"tap interval must be > 0, got {interval!r}")
        start = self.now + interval if first_at is None \
            else max(first_at, self.now)
        tap = [start, interval, fn]
        self._taps.append(tap)
        if start < self._next_tap_at:
            self._next_tap_at = start
        return tap

    def remove_tap(self, tap: list) -> bool:
        """Deregister a tap handle; True if it was registered."""
        try:
            self._taps.remove(tap)
        except ValueError:
            return False
        self._next_tap_at = min((t[0] for t in self._taps),
                                default=float("inf"))
        return True

    def _fire_taps(self, limit: float) -> None:
        """Fire every tap tick due at or before ``limit``, in tick order."""
        saved_now = self.now
        while True:
            due = None
            for tap in self._taps:
                if tap[0] <= limit and (due is None or tap[0] < due[0]):
                    due = tap
            if due is None:
                break
            at = due[0]
            due[0] = at + due[1]
            # Ticks read as "now" so tap callbacks that consult the clock
            # (e.g. gauges stamped with sample time) see the tick instant.
            self.now = at
            due[2](at)
        self.now = saved_now
        self._next_tap_at = min((t[0] for t in self._taps),
                                default=float("inf"))

    # -- event constructors ----------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def delay(self, delay: float) -> Any:
        """Park the running process: ``yield sim.delay(d)``.

        The cheap form of ``yield sim.timeout(d)`` for a wait nobody else
        can observe: one raw queue entry that resumes the caller, no
        :class:`Event`. Call from inside a process and yield the result
        at once (it cannot be stored, shared, or given to a condition).
        """
        proc = self._active
        if proc is None:
            raise SimulationError("delay() called outside a process")
        proc._token = proc._waiting_on = token = proc._token + 1
        self._push(delay, proc._on_wake, (token,))
        return PARKED

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def fan_in(self) -> FanIn:
        return FanIn(self)

    # -- running ----------------------------------------------------------

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulated time), or an :class:`Event` (run until it
        triggers; its value is returned).
        """
        if self._running:
            raise SimulationError("simulator is already running")
        stop_event: Optional[Event] = None
        deadline: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
            stop_event.add_callback(self._stop_callback)
        elif until is not None:
            deadline = float(until)
            if deadline < self.now:
                raise SimulationError(
                    f"until={deadline!r} lies in the past (now={self.now!r})")

        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        self._running = True
        try:
            while True:
                if ready:
                    # Interleave with heap entries already due at ``now``:
                    # global order is exactly sort-by-(time, seq).
                    if heap and heap[0][0] <= self.now \
                            and heap[0][1] < ready[0][0]:
                        _at, _seq, fn, args = heappop(heap)
                    else:
                        _seq, fn, args = ready.popleft()
                elif heap:
                    at = heap[0][0]
                    if deadline is not None and at > deadline:
                        break
                    if at >= self._next_tap_at:
                        self._fire_taps(at)
                    _at, _seq, fn, args = heappop(heap)
                    self.now = at
                else:
                    break
                try:
                    fn(*args)
                except StopSimulation:
                    break
            if deadline is not None and self.now < deadline:
                if deadline >= self._next_tap_at:
                    self._fire_taps(deadline)
                self.now = deadline
        finally:
            self._running = False

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "simulation ended before the until-event triggered "
                    f"(now={self.now!r})")
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation

    # -- sharded execution (see repro.sim.parallel) -----------------------

    def run_until(self, horizon: float) -> float:
        """Run every action due at or before ``horizon``; clock ends there.

        The bounded-window primitive conservative parallel simulation is
        built on: a shard coordinator advances each shard's kernel in
        lookahead-sized windows by calling ``run_until`` repeatedly.
        Actions scheduled exactly at ``horizon`` execute (the window is
        half-open on the left: ``(prev_horizon, horizon]``), and on
        return ``now == horizon`` even if the shard went idle earlier,
        so clock taps fire and every shard leaves the window at the same
        instant. Returns the new ``now``.
        """
        if horizon < self.now:
            raise SimulationError(
                f"run_until({horizon!r}) lies in the past "
                f"(now={self.now!r})")
        self.run(until=horizon)
        return self.now

    def lower_bound(self) -> float:
        """Lower-bound timestamp (LBTS) of this kernel.

        No not-yet-executed local action can run earlier than this time,
        so no locally-generated message can carry an earlier send time.
        A neighbour shard with lookahead ``L`` on the connecting link may
        therefore safely advance to ``lower_bound() + L``. It is the time
        of the next scheduled action, or ``inf`` when idle.
        """
        if self._ready:
            return self.now
        return self._heap[0][0] if self._heap else float("inf")

    def inject(self, at: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at the absolute simulated time ``at``.

        The externally-sourced-event path: cross-shard deliveries enter
        the kernel here, between windows, with their original arrival
        timestamp. The entry takes the next sequence number at injection
        time, so a deterministic injection order — the coordinator sorts
        deliveries by ``(time, shard_id, seq)`` — yields a deterministic
        ``(time, seq)`` total order against local events. ``at`` must
        not lie in the shard's past; the conservative lookahead protocol
        guarantees arrivals never do, and this guard turns any protocol
        violation into a loud error instead of silent time travel.
        """
        if at < self.now:
            raise SimulationError(
                f"cannot inject at {at!r}, in the past (now={self.now!r})")
        self._seq += 1
        if at == self.now:
            self._ready.append((self._seq, fn, args))
        else:
            heapq.heappush(self._heap, (at, self._seq, fn, args))
