"""Unit tests for the kernel fast path: ready queue, parked and identity waits.

The scheduler (heap of ``(time, seq, fn, args)`` + a same-time FIFO
ready deque + processes parked on raw entries by ``delay()``) must be
invisible to simulation code: global execution order is exactly
sort-by-``(time, seq)``, a parked wait costs one entry and no event,
and the interrupt/wake-up races resolve the same way whether a process
waits on an event (identity check) or is parked (token check).
"""

import pytest

from repro.sim import Interrupt, SimulationError, Simulator


# ----------------------------------------------------------------------
# Same-time ordering: ready queue vs heap interleave strictly by seq
# ----------------------------------------------------------------------

def test_same_time_callbacks_run_in_fifo_order():
    sim = Simulator()
    log = []
    for i in range(50):
        sim.call_soon(log.append, i)
    sim.run()
    assert log == list(range(50))


def test_zero_delay_storm_preserves_schedule_order():
    """call_soon storms from inside callbacks stay FIFO per wave."""
    sim = Simulator()
    log = []

    def tick(depth):
        log.append(depth)
        if depth < 5:
            sim.call_soon(tick, depth + 1)
            sim.call_soon(log.append, -depth)

    sim.call_soon(tick, 0)
    sim.run()
    assert log == [0, 1, -0, 2, -1, 3, -2, 4, -3, 5, -4]


def test_heap_and_ready_interleave_by_seq_at_same_time():
    """A zero-delay heap entry (scheduled earlier from another time) must
    run before ready-queue entries appended later at the same instant."""
    sim = Simulator()
    log = []

    def proc():
        # Scheduled first: lands in the heap, fires at t=1.0.
        sim.call_in(1.0, log.append, "heap-early")
        yield sim.timeout(1.0)
        # Appended at t=1.0 after the heap entry's seq: must run later.
        sim.call_soon(log.append, "ready-late")

    sim.process(proc())
    sim.run()
    assert log == ["heap-early", "ready-late"]


def test_timeout_zero_and_call_soon_share_one_ordering():
    sim = Simulator()
    log = []

    def a():
        yield sim.timeout(0)
        log.append("a")

    def b():
        yield sim.timeout(0)
        log.append("b")

    sim.process(a())
    sim.call_soon(log.append, "soon")
    sim.process(b())
    sim.run()
    # Process starts consume ready slots too: a starts, "soon" runs, b
    # starts, then the two zero-delay timeouts fire in creation order.
    assert log == ["soon", "a", "b"]


# ----------------------------------------------------------------------
# Conditions with already-triggered children
# ----------------------------------------------------------------------

def test_all_of_with_already_triggered_children():
    sim = Simulator()
    seen = []

    def proc():
        done = sim.event().succeed("early")
        fresh = sim.timeout(1.0, "late")
        values = yield sim.all_of([done, fresh])
        seen.append(values)

    sim.process(proc())
    sim.run()
    assert seen == [["early", "late"]]


def test_all_of_with_all_children_pre_triggered():
    sim = Simulator()
    seen = []

    def proc():
        first = sim.event().succeed(1)
        second = sim.event().succeed(2)
        values = yield sim.all_of([first, second])
        seen.append((values, sim.now))

    sim.process(proc())
    sim.run()
    assert seen == [([1, 2], 0.0)]


def test_any_of_prefers_already_triggered_child():
    sim = Simulator()
    seen = []

    def proc():
        done = sim.event().succeed("instant")
        slow = sim.timeout(5.0, "slow")
        event, value = yield sim.any_of([done, slow])
        seen.append((event is done, value, sim.now))

    sim.process(proc())
    sim.run(until=10.0)
    assert seen == [(True, "instant", 0.0)]


def test_any_of_with_already_failed_child_fails():
    sim = Simulator()
    failures = []

    def proc():
        bad = sim.event()
        bad.fail(RuntimeError("boom"))
        bad.defused = True
        good = sim.timeout(1.0)
        try:
            yield sim.any_of([bad, good])
        except RuntimeError as exc:
            failures.append(str(exc))

    sim.process(proc())
    sim.run()
    assert failures == ["boom"]


# ----------------------------------------------------------------------
# Interrupt vs wake-up races under the ready queue
# ----------------------------------------------------------------------

def test_interrupt_beats_same_tick_wakeup():
    """An interrupt issued before a same-time wake-up wins: the stale
    wake-up is swallowed, exactly as under the old serial scheme."""
    sim = Simulator()
    log = []
    proc = None

    def interrupter():
        # Created first so this timeout's seq is lower: at t=1.0 the
        # interrupt lands before the sleeper's own timeout processes.
        yield sim.timeout(1.0)
        proc.interrupt("race")

    def sleeper():
        try:
            value = yield sim.timeout(1.0, "woke")
            log.append(("value", value))
        except Interrupt as intr:
            log.append(("interrupted", intr.cause))
        yield sim.timeout(1.0)
        log.append(("after", sim.now))

    sim.process(interrupter())
    proc = sim.process(sleeper())
    sim.run()
    assert log == [("interrupted", "race"), ("after", 2.0)]


def test_wakeup_then_interrupt_delivers_both_in_order():
    sim = Simulator()
    log = []

    def sleeper():
        value = yield sim.timeout(1.0, "first")
        log.append(("woke", value))
        try:
            yield sim.timeout(5.0)
        except Interrupt as intr:
            log.append(("interrupted", intr.cause))

    proc = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(2.0)
        proc.interrupt("later")

    sim.process(interrupter())
    sim.run()
    assert log == [("woke", "first"), ("interrupted", "later")]


def test_interrupt_before_first_step_cancels_start():
    sim = Simulator()
    log = []

    def body():
        log.append("started")
        yield sim.timeout(1.0)

    proc = sim.process(body())
    proc.interrupt("too-early")
    # The pending start is cancelled; the undefused failed process
    # re-raises the Interrupt out of run().
    with pytest.raises(Interrupt):
        sim.run()
    assert log == []  # the generator never reached its first yield


def test_double_interrupt_delivers_twice():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(10.0)
        except Interrupt as intr:
            log.append(("first", intr.cause))
        try:
            yield sim.timeout(10.0)
        except Interrupt as intr:
            log.append(("second", intr.cause))

    proc = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(1.0)
        proc.interrupt("a")
        proc.interrupt("b")

    sim.process(interrupter())
    sim.run()
    assert log == [("first", "a"), ("second", "b")]


def test_rewaiting_same_event_after_interrupt_resumes_once():
    """Waiting on an event, being interrupted, then waiting on the same
    event again must resume exactly once when it fires."""
    sim = Simulator()
    log = []
    gate = None

    def waiter():
        nonlocal gate
        gate = sim.event()
        try:
            value = yield gate
            log.append(("clean", value))
        except Interrupt:
            log.append("interrupted")
            value = yield gate
            log.append(("rewait", value))

    proc = sim.process(waiter())

    def driver():
        yield sim.timeout(1.0)
        proc.interrupt()
        yield sim.timeout(1.0)
        gate.succeed("opened")

    sim.process(driver())
    sim.run()
    assert log == ["interrupted", ("rewait", "opened")]


# ----------------------------------------------------------------------
# Parked waits: delay() resumes its caller from one raw queue entry
# ----------------------------------------------------------------------

def test_delay_parks_the_caller_for_one_entry_and_no_event():
    sim = Simulator()
    seen = []

    def proc():
        before = sim._seq
        value = yield sim.delay(0.5)
        seen.append((value, sim.now, sim._seq - before))

    sim.process(proc())
    sim.run()
    assert seen == [(None, 0.5, 1)]


def test_delay_zero_keeps_ready_queue_fifo_order():
    sim = Simulator()
    log = []

    def parked(tag):
        yield sim.delay(0)
        log.append(tag)

    def timed(tag):
        yield sim.timeout(0)
        log.append(tag)

    sim.process(parked("a"))
    sim.call_soon(log.append, "soon")
    sim.process(timed("b"))
    sim.process(parked("c"))
    sim.run()
    # Starts run in order; each zero-delay wait then fires in the order
    # it was queued, whichever form it took, with no time passing.
    assert log == ["soon", "a", "b", "c"]
    assert sim.now == 0.0


def test_delay_and_timeout_interleave_by_seq_at_the_same_instant():
    sim = Simulator()
    log = []

    def parked(tag, d):
        yield sim.delay(d)
        log.append(tag)

    def timed(tag, d):
        yield sim.timeout(d)
        log.append(tag)

    sim.process(timed("t1", 1.0))
    sim.process(parked("p1", 1.0))
    sim.process(timed("t2", 1.0))
    sim.process(parked("p2", 1.0))
    sim.run()
    assert log == ["t1", "p1", "t2", "p2"]


def test_stale_delay_wakeup_after_interrupt_is_swallowed():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.delay(1.0)
            log.append("not-interrupted")
        except Interrupt as intr:
            log.append(("interrupted", intr.cause, sim.now))
        # The original wake-up (t=1.0) is still queued; it must not cut
        # this second, longer wait short.
        yield sim.delay(2.0)
        log.append(("woke", sim.now))

    proc = sim.process(sleeper())
    sim.call_in(0.5, proc.interrupt, "stop")
    sim.run()
    assert log == [("interrupted", "stop", 0.5), ("woke", 2.5)]


def test_interrupt_racing_a_delay_wakeup_resumes_exactly_once():
    sim = Simulator()
    resumes = []

    def sleeper():
        try:
            yield sim.delay(1.0)
            resumes.append("woke")
        except Interrupt:
            resumes.append("interrupted")

    proc = sim.process(sleeper())
    # Same instant as the wake-up, queued ahead of it.
    sim.call_in(1.0, proc.interrupt)
    sim.run()
    assert resumes == ["woke"] or resumes == ["interrupted"]
    assert len(resumes) == 1 and proc.triggered


def test_delay_outside_a_process_raises():
    sim = Simulator()
    with pytest.raises(SimulationError, match="outside a process"):
        sim.delay(1.0)
    sim.call_soon(sim.delay, 1.0)       # a bare callback is no process
    with pytest.raises(SimulationError, match="outside a process"):
        sim.run()


def test_negative_delay_rejected_with_now_in_message():
    sim = Simulator()

    def proc():
        yield sim.delay(-0.5)

    with pytest.raises(SimulationError, match=r"now="):
        sim.run(until=sim.process(proc()))
    with pytest.raises(SimulationError, match=r"now="):
        sim.timeout(-0.5)
    with pytest.raises(SimulationError, match=r"now="):
        sim.call_in(-0.5, lambda: None)


def test_parked_result_is_not_an_event():
    """delay() hands back a marker for the kernel, not something to
    store or combine: giving it to a condition fails loudly."""
    sim = Simulator()

    def proc():
        yield sim.any_of([sim.delay(1.0), sim.timeout(2.0)])

    with pytest.raises(AttributeError):
        sim.run(until=sim.process(proc()))


