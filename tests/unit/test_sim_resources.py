"""Unit tests for the Resource primitive."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Interrupt, Resource, SimulationError, Simulator


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    log = []

    def worker(tag, hold):
        req = res.request()
        yield req
        log.append(("start", tag, sim.now))
        yield sim.timeout(hold)
        res.release(req)
        log.append(("end", tag, sim.now))

    for tag, hold in [("a", 5.0), ("b", 5.0), ("c", 5.0)]:
        sim.process(worker(tag, hold))
    sim.run()
    starts = {tag: t for kind, tag, t in log if kind == "start"}
    assert starts["a"] == 0.0
    assert starts["b"] == 0.0
    assert starts["c"] == 5.0  # queued behind the first two


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(tag):
        req = res.request()
        yield req
        order.append(tag)
        yield sim.timeout(1.0)
        res.release(req)

    for tag in "abcd":
        sim.process(worker(tag))
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_cancel_queued_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(10.0)
        res.release(req)

    sim.process(holder())
    sim.run(until=1.0)
    queued = res.request()
    assert not queued.triggered
    res.release(queued)  # cancel while still queued
    assert res.queue_len == 0


def test_release_unknown_request_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    other = Resource(sim, capacity=1)
    req = other.request()
    with pytest.raises(SimulationError):
        res.release(req)


def test_set_capacity_grows_and_grants():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    started = []

    def worker(tag):
        req = res.request()
        yield req
        started.append((tag, sim.now))
        yield sim.timeout(100.0)
        res.release(req)

    def grower():
        yield sim.timeout(5.0)
        res.set_capacity(2)

    sim.process(worker("a"))
    sim.process(worker("b"))
    sim.process(grower())
    sim.run(until=50.0)
    assert ("a", 0.0) in started
    assert ("b", 5.0) in started


def test_capacity_must_be_positive():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.set_capacity(0)


def test_utilization_tracking():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        req = res.request()
        yield req
        yield sim.timeout(4.0)
        res.release(req)

    sim.process(worker())
    sim.run(until=8.0)
    # Busy 4s of 8s on one slot -> 50% utilization.
    assert res.utilization() == pytest.approx(0.5)


def test_utilization_checkpoint_window():
    sim = Simulator()
    res = Resource(sim, capacity=2)

    def worker(start, hold):
        yield sim.timeout(start)
        req = res.request()
        yield req
        yield sim.timeout(hold)
        res.release(req)

    sim.process(worker(0.0, 10.0))
    sim.run(until=5.0)
    ckpt = res.checkpoint()
    sim.process(worker(0.0, 5.0))  # second slot busy from t=5 to t=10
    sim.run(until=10.0)
    # Window [5, 10]: both slots busy -> utilization 1.0.
    assert res.utilization_since(ckpt) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# hold(): one scheduler entry per service of a known duration
# ----------------------------------------------------------------------

def test_hold_serves_for_duration_with_one_entry_queued_or_not():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    ends = []

    def worker(tag):
        yield res.hold(2.0)
        ends.append((tag, sim.now))

    for tag in "abc":
        sim.process(worker(tag))
    sim.run()
    assert ends == [("a", 2.0), ("b", 4.0), ("c", 6.0)]
    assert res.count == 0 and res.queue_len == 0
    assert res.busy_slot_seconds == 6.0
    # Three process starts, three completions, three process exits.
    assert sim._seq == 9


def test_hold_done_hook_runs_at_completion_before_the_next_grant():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def worker(tag):
        yield res.hold(1.0, log.append, (("done", tag),))
        log.append(("resumed", tag, sim.now, res.count))

    sim.process(worker("a"))
    sim.process(worker("b"))
    sim.run()
    # a's bookkeeping lands before b is granted (count is already 1 again
    # when a resumes) and before a itself continues.
    assert log == [("done", "a"), ("resumed", "a", 1.0, 1),
                   ("done", "b"), ("resumed", "b", 2.0, 0)]


def test_hold_fifo_order_and_zero_duration():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(tag, arrive, duration):
        yield sim.timeout(arrive)
        yield res.hold(duration)
        order.append((tag, sim.now))

    sim.process(worker("holder", 0.0, 1.0))
    sim.process(worker("first", 0.1, 0.5))
    sim.process(worker("zero", 0.2, 0.0))
    sim.run()
    assert order == [("holder", 1.0), ("first", 1.5), ("zero", 1.5)]


def test_hold_and_request_share_one_occupancy_count():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    seen = []

    def locker():
        req = res.request()
        yield req
        yield sim.timeout(3.0)
        res.release(req)

    def holder(tag):
        yield res.hold(2.0)
        seen.append((tag, sim.now))

    sim.process(locker())
    sim.process(holder("h1"))
    sim.process(holder("h2"))       # queues behind the lock and h1
    sim.run(until=1.0)
    assert res.count == 2 and res.queue_len == 1
    sim.run()
    assert seen == [("h1", 2.0), ("h2", 4.0)]
    assert res.busy_slot_seconds == 3.0 + 2.0 + 2.0


def test_hold_outside_a_process_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError, match="outside a process"):
        res.hold(1.0)
    assert res.count == 0

    def proc():
        yield res.hold(-1.0)

    with pytest.raises(SimulationError):
        sim.run(until=sim.process(proc()))
    assert res.count == 0


def test_interrupting_a_granted_holder_neither_leaks_nor_double_resumes():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def victim():
        try:
            yield res.hold(10.0)
            log.append("completed")
        except Interrupt:
            log.append(("interrupted", sim.now))
        yield sim.delay(20.0)       # the stale completion must not end this
        log.append(("victim-done", sim.now))

    def waiter():
        yield sim.timeout(1.0)
        yield res.hold(1.0)
        log.append(("waiter-done", sim.now))

    proc = sim.process(victim())
    sim.process(waiter())
    sim.call_in(2.0, proc.interrupt)
    sim.run()
    # The wait is abandoned, the service is not: the slot frees at t=10.
    assert log == [("interrupted", 2.0), ("waiter-done", 11.0),
                   ("victim-done", 22.0)]
    assert res.count == 0 and res.queue_len == 0
    assert res.busy_slot_seconds == 11.0


def test_interrupting_a_queued_holder_skips_it_at_its_turn():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def worker(tag, duration):
        try:
            yield res.hold(duration)
            log.append((tag, sim.now))
        except Interrupt:
            log.append((tag, "interrupted", sim.now))

    sim.process(worker("a", 5.0))
    queued = sim.process(worker("b", 5.0))
    sim.process(worker("c", 5.0))
    sim.call_in(1.0, queued.interrupt)
    sim.run()
    assert log == [("b", "interrupted", 1.0), ("a", 5.0), ("c", 10.0)]
    assert res.count == 0 and res.queue_len == 0
    assert res.busy_slot_seconds == 10.0    # b never occupied the slot


def test_at_grant_sets_the_service_time_and_may_refuse():
    sim = Simulator()
    refuse = []

    def at_grant(duration):
        if refuse:
            raise ValueError("refused at grant")
        return duration + 0.5

    res = Resource(sim, capacity=1, at_grant=at_grant)
    log = []

    def worker(tag):
        try:
            yield res.hold(1.0)
            log.append((tag, sim.now))
        except ValueError:
            log.append((tag, "refused", sim.now))

    sim.process(worker("a"))
    sim.process(worker("b"))
    sim.process(worker("c"))
    sim.call_in(1.0, refuse.append, True)
    sim.call_in(1.6, refuse.clear)
    sim.run()
    # b is refused when its turn comes (t=1.5) and never holds the slot,
    # which passes straight on to c... whose grant is refused as well.
    assert log == [("a", 1.5), ("b", "refused", 1.5), ("c", "refused", 1.5)]
    assert res.count == 0 and res.busy_slot_seconds == 1.5


def _completions(use_hold, capacity, jobs, resizes):
    """Run one schedule; (completion log, busy integral, final clock).

    ``use_hold=False`` is the reference: the request -> timeout ->
    release triple every service site used before ``hold`` existed.
    """
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    log = []

    def job(i, arrive, duration):
        yield sim.timeout(arrive)
        if use_hold:
            yield res.hold(duration)
        else:
            req = res.request()
            yield req
            try:
                yield sim.timeout(duration)
            finally:
                res.release(req)
        log.append((i, sim.now))

    def resizer():
        now = 0.0
        for at, cap in resizes:
            yield sim.timeout(at - now)
            now = at
            res.set_capacity(cap)

    for i, (arrive, whole) in enumerate(jobs):
        # A distinct binary fraction per job keeps every completion time
        # off the integer grid arrivals use (and off the .75 resizes
        # use), exactly: an arrival racing a completion at one instant is
        # ordered by which entry was queued first, and hold() queues its
        # completion earlier than the triple could (that is the point).
        sim.process(job(i, float(arrive), whole + 2.0 ** -(i + 2)))
    sim.process(resizer())
    sim.run()
    return log, res.busy_slot_seconds, sim.now


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 3),
       jobs=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 4)),
                     min_size=1, max_size=12),
       resizes=st.lists(st.tuples(st.integers(0, 20), st.integers(1, 4)),
                        max_size=4))
def test_hold_matches_the_request_timeout_release_triple(capacity, jobs,
                                                         resizes):
    resizes = [(at + 0.75, cap) for at, cap in
               sorted(dict(resizes).items())]
    assert _completions(True, capacity, jobs, resizes) == \
        _completions(False, capacity, jobs, resizes)
