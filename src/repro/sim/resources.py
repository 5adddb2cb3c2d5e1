"""Shared-resource primitives for simulation processes.

:class:`Resource` models a pool of interchangeable servers (CPU cores, NIC
engines, link slots): a process that knows how long it will occupy a slot
calls :meth:`Resource.hold` (one scheduler entry per service); a true
lock, released whenever its holder decides, uses ``request``/``release``.
Resources track utilization so higher layers (Pony Express
scale-out, CPU accounting) can make load-driven decisions.
"""

from __future__ import annotations

import bisect
from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, Optional

from .core import PARKED, Event, SimulationError, Simulator


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot (a lock)."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource    # None once released


class Resource:
    """A pool of ``capacity`` identical slots with a priority/FIFO queue.

    Holds and lock requests share one queue and one occupancy count.
    ``at_grant(duration) -> duration`` runs the instant a :meth:`hold` is
    granted, before it occupies its slot: the place for service-time terms
    only known then (a C-state wake-up) and for refusing by raising.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "",
                 at_grant: Optional[Callable[[float], float]] = None):
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.sim = sim
        self.name = name
        self._capacity = capacity
        self._at_grant = at_grant
        self._busy = 0
        # Sorted by (priority, seq): (priority, seq, request) for a lock,
        # (priority, seq, None, process, token, duration, done, args).
        self._queue: Deque[tuple] = deque()
        self._seq = 0
        # Utilization accounting: integral of busy slots over time.
        self._busy_integral = 0.0
        self._last_change = sim.now

    # -- capacity ---------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    def set_capacity(self, capacity: int) -> None:
        """Grow or shrink the pool; shrinking never evicts current users."""
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self._account()
        self._capacity = capacity
        self._grant()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return self._busy

    @property
    def queue_len(self) -> int:
        return len(self._queue)

    # -- accounting ---------------------------------------------------------

    def _account(self) -> None:
        now = self.sim.now
        if now != self._last_change:
            self._busy_integral += self._busy * (now - self._last_change)
            self._last_change = now

    def utilization(self, since_integral: float = 0.0,
                    since_time: float = 0.0) -> float:
        """Mean busy-slot count per slot since the given checkpoint."""
        self._account()
        elapsed = self.sim.now - since_time
        if elapsed <= 0:
            return 0.0
        return (self._busy_integral - since_integral) / elapsed / self._capacity

    def checkpoint(self):
        """Return an opaque checkpoint for :meth:`utilization`."""
        self._account()
        return (self._busy_integral, self.sim.now)

    def utilization_since(self, checkpoint) -> float:
        return self.utilization(*checkpoint)

    @property
    def busy_slot_seconds(self) -> float:
        self._account()
        return self._busy_integral

    # -- hold: occupy a slot for a known time -------------------------------

    def hold(self, duration: float, priority: int = 0,
             done: Optional[Callable] = None, args: tuple = ()) -> Any:
        """Occupy a slot for ``duration`` seconds: ``yield r.hold(d)``.

        Queues (priority, then FIFO) while every slot is busy, serves for
        ``duration`` from the grant instant, then frees the slot, runs
        ``done(*args)``, grants the next in line and resumes the caller:
        **one** scheduler entry, the completion, pushed here when a slot
        is free and by the previous holder's completion otherwise. Call
        from inside a process and yield the result at once. Interrupting
        the caller abandons the wait, not the service: a granted slot stays
        busy until its completion time, a queued hold is skipped.
        """
        sim = self.sim
        proc = sim._active
        if proc is None:
            raise SimulationError("hold() called outside a process")
        if duration < 0:
            raise SimulationError(f"cannot hold for {duration!r}s")
        proc._token = proc._waiting_on = token = proc._token + 1
        if self._busy >= self._capacity or self._queue:
            self._seq += 1
            self._enqueue((priority, self._seq, None, proc, token,
                           duration, done, args))
            return PARKED
        # Uncontended (with the run loop and Process._step, the hottest
        # code in a cell run): what _grant() does for a queued hold.
        if self._at_grant is not None:
            duration = self._at_grant(duration)
        now = sim.now
        if now != self._last_change:
            self._busy_integral += self._busy * (now - self._last_change)
            self._last_change = now
        self._busy += 1
        sim._seq = seq = sim._seq + 1
        if duration == 0:
            sim._ready.append(
                (seq, self._finish, (proc, token, done, args)))
        else:
            heappush(sim._heap, (now + duration, seq, self._finish,
                                 (proc, token, done, args)))
        return PARKED

    def _finish(self, proc, token, done, args) -> None:
        now = self.sim.now
        if now != self._last_change:
            self._busy_integral += self._busy * (now - self._last_change)
            self._last_change = now
        self._busy -= 1
        if done is not None:
            done(*args)
        if self._queue:
            self._grant()
        if proc._waiting_on == token and not proc._triggered:
            proc._step(proc._send, None)    # else: interrupted meanwhile

    # -- request/release: a lock held for a time unknown at grant -----------

    def request(self, priority: int = 0) -> Request:
        """Claim a slot; the returned event triggers when it is granted."""
        req = Request(self)
        self._seq += 1
        self._enqueue((priority, self._seq, req))
        self._grant()   # at once when a slot is free: nobody is queued then
        return req

    def release(self, request: Request) -> None:
        """Return a granted slot to the pool (or cancel a queued claim)."""
        if request.resource is not self:
            raise SimulationError("release of unknown request")
        request.resource = None
        # Granted with itself as its value; the holder already has it.
        request._value = None
        if request._triggered:
            self._account()
            self._busy -= 1
            self._grant()
        else:
            self._queue.remove(
                next(e for e in self._queue if e[2] is request))

    def _enqueue(self, entry: tuple) -> None:
        queue = self._queue
        if not queue or queue[-1][0] <= entry[0]:
            queue.append(entry)     # FIFO: the only case callers produce
        else:
            bisect.insort(queue, entry)  # (priority, seq) decides; seq unique

    def _grant(self) -> None:
        queue = self._queue
        while queue and self._busy < self._capacity:
            entry = queue.popleft()
            request = entry[2]
            if request is not None:
                self._account()
                self._busy += 1
                request.succeed(request)
                continue
            proc, token, duration, done, args = entry[3:]
            if proc._waiting_on != token:
                continue    # interrupted while queued: never served
            if self._at_grant is not None:
                try:
                    duration = self._at_grant(duration)
                except Exception as exc:  # noqa: BLE001 - refused
                    self.sim.call_soon(proc._on_wake, token, None, exc)
                    continue
            self._account()
            self._busy += 1
            self.sim._push(duration, self._finish,
                           (proc, token, done, args))

