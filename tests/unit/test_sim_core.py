"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Interrupt, SimulationError, Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_time():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(1.5)
        log.append(sim.now)
        yield sim.timeout(0.5)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [1.5, 2.0]


def test_timeout_value_passthrough():
    sim = Simulator()
    seen = []

    def proc():
        value = yield sim.timeout(1.0, "hello")
        seen.append(value)

    sim.process(proc())
    sim.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_run_until_time():
    sim = Simulator()
    log = []

    def proc():
        while True:
            yield sim.timeout(1.0)
            log.append(sim.now)

    sim.process(proc())
    sim.run(until=3.5)
    assert log == [1.0, 2.0, 3.0]
    assert sim.now == 3.5


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.0)
        return 42

    result = sim.run(until=sim.process(proc()))
    assert result == 42
    assert sim.now == 2.0


def test_events_process_in_fifo_order_at_same_time():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abc":
        sim.process(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_process_waits_on_another_process():
    sim = Simulator()
    log = []

    def child():
        yield sim.timeout(3.0)
        return "done"

    def parent():
        result = yield sim.process(child())
        log.append((sim.now, result))

    sim.process(parent())
    sim.run()
    assert log == [(3.0, "done")]


def test_process_failure_propagates_to_waiter():
    sim = Simulator()
    caught = []

    def child():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(parent())
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_failure_raises_in_run():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("unhandled")

    sim.process(child())
    with pytest.raises(ValueError, match="unhandled"):
        sim.run()


def test_defused_failure_does_not_raise():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("defused")

    proc = sim.process(child())
    proc.defused = True
    sim.run()
    assert not proc.ok


def test_manual_event_succeed():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        got.append((yield ev))

    def firer():
        yield sim.timeout(5.0)
        ev.succeed("fired")

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert got == ["fired"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_wait_on_already_processed_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    got = []

    def waiter():
        yield sim.timeout(2.0)
        got.append((yield ev))

    sim.process(waiter())
    sim.run()
    assert got == ["early"]


def test_all_of_waits_for_all():
    sim = Simulator()
    got = []

    def child(delay, value):
        yield sim.timeout(delay)
        return value

    def parent():
        values = yield sim.all_of(
            [sim.process(child(d, v)) for d, v in [(3, "a"), (1, "b")]])
        got.append((sim.now, values))

    sim.process(parent())
    sim.run()
    assert got == [(3.0, ["a", "b"])]


def test_any_of_returns_first():
    sim = Simulator()
    got = []

    def child(delay, value):
        yield sim.timeout(delay)
        return value

    def parent():
        event, value = yield sim.any_of(
            [sim.process(child(d, v)) for d, v in [(3, "slow"), (1, "fast")]])
        got.append((sim.now, value))

    sim.process(parent())
    sim.run()
    assert got == [(1.0, "fast")]


def test_any_of_defuses_later_failures():
    sim = Simulator()
    got = []

    def fast():
        yield sim.timeout(1.0)
        return "fast"

    def slow_fail():
        yield sim.timeout(2.0)
        raise RuntimeError("late failure")

    def parent():
        _ev, value = yield sim.any_of(
            [sim.process(fast()), sim.process(slow_fail())])
        got.append(value)
        yield sim.timeout(10.0)

    sim.process(parent())
    sim.run()
    assert got == ["fast"]


def test_fan_in_takes_one_child_per_wait():
    """A wait is met by the child that ends during it; children that
    ended while nobody waited are taken earliest-spawned first — the
    pick ``any_of(list(pending))`` made."""
    sim = Simulator()
    got = []

    def child(delay, value):
        yield sim.timeout(delay)
        return value

    def parent():
        legs = sim.fan_in()
        for tag, delay in (("slow", 3.0), ("fast", 1.0), ("c", 2.2),
                           ("d", 2.0)):
            legs.spawn(child(delay, tag.upper()), tag)
        assert legs.pending == 4
        got.append(((yield legs.next()), sim.now))
        yield sim.timeout(1.5)      # d, then c, end while nobody waits
        while legs.pending:
            got.append(((yield legs.next()), sim.now))
        with pytest.raises(SimulationError):
            legs.next()

    sim.run(until=sim.process(parent()))
    assert got == [(("fast", "FAST"), 1.0), (("c", "C"), 2.5),
                   (("d", "D"), 2.5), (("slow", "SLOW"), 3.0)]


def test_fan_in_visits_children_in_the_order_an_any_of_drain_did():
    """The idiom ``FanIn`` replaces, kept here as the reference: same
    children, same busy parent, same visiting order and instants."""
    delays = [5.0, 1.0, 4.0, 1.0, 2.5, 3.0, 0.5, 2.5]

    def visit(drain):
        sim = Simulator()
        visited = []

        def child(delay):
            yield sim.timeout(delay)
            return delay

        def parent():
            yield from drain(sim, child, visited)

        sim.run(until=sim.process(parent()))
        return visited

    def any_of_drain(sim, child, visited):
        pending = {sim.process(child(d)): i for i, d in enumerate(delays)}
        while pending:
            event, value = yield sim.any_of(list(pending))
            visited.append((pending.pop(event), value, sim.now))
            yield sim.timeout(0.8)      # a parent busy in simulated time

    def fan_in_drain(sim, child, visited):
        legs = sim.fan_in()
        for i, d in enumerate(delays):
            legs.spawn(child(d), i)
        while legs.pending:
            i, value = yield legs.next()
            visited.append((i, value, sim.now))
            yield sim.timeout(0.8)

    assert visit(fan_in_drain) == visit(any_of_drain)


def test_fan_in_registers_one_callback_per_child():
    sim = Simulator()

    def child(delay):
        yield sim.timeout(delay)

    def parent():
        legs = sim.fan_in()
        children = [legs.spawn(child(float(d))) for d in range(1, 30)]
        while legs.pending:
            yield legs.next()
            assert all(len(c.callbacks) == 1 for c in children
                       if c.callbacks is not None)

    sim.run(until=sim.process(parent()))


def test_fan_in_child_failure_reaches_the_parent_at_its_next_wait():
    sim = Simulator()
    seen = []

    def child(delay, fail):
        yield sim.timeout(delay)
        if fail:
            raise RuntimeError(f"child failed at {sim.now}")
        return delay

    def parent():
        legs = sim.fan_in()
        legs.spawn(child(1.0, False), "ok")
        legs.spawn(child(2.0, True), "waited-for")
        legs.spawn(child(3.0, True), "ended-before-the-wait")
        legs.spawn(child(5.0, False), "last")
        seen.append((yield legs.next()))
        for _ in range(2):
            try:
                yield legs.next()
            except RuntimeError as exc:
                seen.append(str(exc))
            yield sim.timeout(1.5)
        seen.append((yield legs.next()))

    sim.run(until=sim.process(parent()))
    assert seen == [("ok", 1.0), "child failed at 2.0",
                    "child failed at 3.0", ("last", 5.0)]


def test_fan_in_drops_what_lands_after_the_parent_left():
    """A parent that stops early (a settled quorum) leaves children in
    flight: their results, and their failures, go nowhere."""
    sim = Simulator()

    def child(delay, fail):
        yield sim.timeout(delay)
        if fail:
            raise RuntimeError("nobody is listening")
        return delay

    def parent():
        legs = sim.fan_in()
        legs.spawn(child(1.0, False), "first")
        legs.spawn(child(2.0, False), "late")
        legs.spawn(child(3.0, True), "late failure")
        return (yield legs.next())

    proc = sim.process(parent())
    sim.run()       # to exhaustion: a late failure would re-raise here
    assert proc.value == ("first", 1.0) and sim.now == 3.0


def test_interrupt_wakes_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def interrupter(target):
        yield sim.timeout(2.0)
        target.interrupt("stop")

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert log == [(2.0, "stop")]


def test_interrupted_process_not_double_resumed():
    sim = Simulator()
    wakeups = []

    def sleeper():
        try:
            yield sim.timeout(5.0)
            wakeups.append("timeout")
        except Interrupt:
            wakeups.append("interrupt")
        yield sim.timeout(10.0)
        wakeups.append("after")

    def interrupter(target):
        yield sim.timeout(1.0)
        target.interrupt()

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert wakeups == ["interrupt", "after"]


def test_interrupt_after_exit_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.process(quick())
    sim.run()
    proc.interrupt()  # must not raise
    sim.run()


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    proc = sim.process(bad())
    proc.defused = True
    sim.run()
    assert not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_call_in_runs_function_later():
    sim = Simulator()
    log = []
    sim.call_in(4.0, log.append, "later")
    sim.call_soon(log.append, "soon")
    sim.run()
    assert log == ["soon", "later"]


def test_lower_bound_reports_next_event_time():
    sim = Simulator()
    assert sim.lower_bound() == float("inf")
    sim.call_in(7.0, lambda: None)
    assert sim.lower_bound() == 7.0


def test_process_return_value_via_until():
    sim = Simulator()

    def nested():
        inner = yield sim.process(child())
        return inner * 2

    def child():
        yield sim.timeout(1.0)
        return 21

    assert sim.run(until=sim.process(nested())) == 42


def test_call_in_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_in(-1.0, lambda: None)


def test_negative_delay_rejected_mid_run():
    # Scheduling into the past from inside a running simulation would
    # make time run backwards for everything already queued.
    sim = Simulator()
    failures = []

    def proc():
        yield sim.timeout(2.0)
        try:
            sim.call_in(-0.5, lambda: None)
        except SimulationError as exc:
            failures.append(exc)

    sim.process(proc())
    sim.run()
    assert len(failures) == 1
    assert sim.now == 2.0


def test_call_in_zero_delay_still_allowed():
    sim = Simulator()
    fired = []
    sim.call_in(0.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [0.0]
