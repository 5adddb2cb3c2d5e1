"""Unit tests for the host / CPU / C-state model."""

import pytest

from repro.net import CStateModel, Host, HostConfig, HostDownError
from repro.sim import Simulator


def make_host(sim, cores=2, c_state=None, slowdown=1.0):
    return Host(sim, "h0", HostConfig(
        cores=cores,
        c_state=c_state or CStateModel(),
        cpu_slowdown=slowdown,
    ))


def test_execute_takes_cpu_time():
    sim = Simulator()
    host = make_host(sim)
    done = []

    def proc():
        yield host.execute(10e-6, "worker")
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [pytest.approx(10e-6)]


def test_execute_charges_ledger():
    sim = Simulator()
    host = make_host(sim)

    def proc():
        yield host.execute(5e-6, "alpha")
        yield host.execute(3e-6, "alpha")
        yield host.execute(2e-6, "beta")

    sim.process(proc())
    sim.run()
    assert host.ledger.seconds("alpha") == pytest.approx(8e-6)
    assert host.ledger.seconds("beta") == pytest.approx(2e-6)
    assert host.ledger.total() == pytest.approx(10e-6)


def test_core_contention_queues_work():
    sim = Simulator()
    host = make_host(sim, cores=1)
    ends = []

    def proc(tag):
        yield host.execute(10e-6, tag)
        ends.append((tag, sim.now))

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert ends == [("a", pytest.approx(10e-6)),
                    ("b", pytest.approx(20e-6))]


def test_parallel_cores_do_not_queue():
    sim = Simulator()
    host = make_host(sim, cores=2)
    ends = []

    def proc(tag):
        yield host.execute(10e-6, tag)
        ends.append(sim.now)

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert ends == [pytest.approx(10e-6), pytest.approx(10e-6)]


def test_cpu_slowdown_multiplies_work():
    sim = Simulator()
    host = make_host(sim, slowdown=2.0)

    def proc():
        yield host.execute(10e-6, "w")

    sim.process(proc())
    sim.run()
    assert sim.now == pytest.approx(20e-6)
    assert host.ledger.seconds("w") == pytest.approx(20e-6)


def test_cstate_penalty_applies_after_idle():
    sim = Simulator()
    cs = CStateModel(enabled=True, idle_threshold=100e-6, wakeup_latency=40e-6)
    host = make_host(sim, cores=1, c_state=cs)
    times = []

    def proc():
        yield host.execute(10e-6, "w")     # cold start: idle since t=0? no, idle=0
        times.append(sim.now)
        yield sim.timeout(500e-6)               # long idle -> deep C-state
        start = sim.now
        yield host.execute(10e-6, "w")
        times.append(sim.now - start)

    sim.process(proc())
    sim.run()
    assert times[0] == pytest.approx(10e-6)       # no penalty when not idle long
    assert times[1] == pytest.approx(50e-6)       # wakeup (40us) + work (10us)


def test_cstate_no_penalty_when_busy_recently():
    sim = Simulator()
    cs = CStateModel(enabled=True, idle_threshold=100e-6, wakeup_latency=40e-6)
    host = make_host(sim, cores=1, c_state=cs)
    durations = []

    def proc():
        for _ in range(3):
            start = sim.now
            yield host.execute(10e-6, "w")
            durations.append(sim.now - start)
            yield sim.timeout(20e-6)  # short gaps keep the core warm

    sim.process(proc())
    sim.run()
    assert durations == [pytest.approx(10e-6)] * 3


def test_crashed_host_rejects_execution():
    sim = Simulator()
    host = make_host(sim)
    host.crash()
    failures = []

    def proc():
        try:
            yield host.execute(1e-6, "w")
        except HostDownError as exc:
            failures.append(exc.host_name)

    sim.process(proc())
    sim.run()
    assert failures == ["h0"]


def test_queued_execute_on_a_host_that_crashes_fails_at_grant():
    sim = Simulator()
    host = make_host(sim, cores=1)
    log = []

    def proc(tag):
        try:
            yield host.execute(10e-6, tag)
            log.append((tag, "ran", sim.now))
        except HostDownError:
            log.append((tag, "down", sim.now))

    sim.process(proc("a"))      # holds the only core until t=10us
    sim.process(proc("b"))      # queued behind it while the host is up
    sim.call_in(5e-6, host.crash)
    sim.run()
    # The work already on the core finishes; the queued execute learns
    # of the crash when the core is handed over, not when it was called.
    assert log == [("a", "ran", pytest.approx(10e-6)),
                   ("b", "down", pytest.approx(10e-6))]
    assert host.ledger.seconds("b") == 0.0
    assert host.cores.count == 0 and host.cores.queue_len == 0


def test_cstate_penalty_is_decided_at_grant_not_at_call():
    sim = Simulator()
    cs = CStateModel(enabled=True, idle_threshold=100e-6, wakeup_latency=40e-6)
    host = make_host(sim, cores=1, c_state=cs)
    ends = []

    def proc(tag):
        yield sim.timeout(500e-6)           # both arrive after a long idle
        yield host.execute(10e-6, tag)
        ends.append((tag, sim.now))

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    # a wakes the core (40us + 10us); b is granted a warm core.
    assert ends == [("a", pytest.approx(550e-6)),
                    ("b", pytest.approx(560e-6))]
    assert host.ledger.seconds("a") == pytest.approx(10e-6)


def test_execute_is_one_scheduler_entry():
    sim = Simulator()
    host = make_host(sim, cores=1)

    def proc():
        before = sim._seq
        yield host.execute(10e-6, "w")
        yield host.execute(0.0, "w")        # zero work still takes a turn
        assert sim._seq - before == 2

    sim.run(until=sim.process(proc()))
    assert sim.now == pytest.approx(10e-6)


def test_restart_revives_host():
    sim = Simulator()
    host = make_host(sim)
    host.crash()
    host.restart()
    done = []

    def proc():
        yield host.execute(1e-6, "w")
        done.append(True)

    sim.process(proc())
    sim.run()
    assert done == [True]


def test_charge_inline_only_touches_ledger():
    sim = Simulator()
    host = make_host(sim)
    host.charge_inline(7e-6, "engine")
    assert host.ledger.seconds("engine") == pytest.approx(7e-6)
    assert sim.now == 0.0


def test_ledger_rejects_negative():
    sim = Simulator()
    host = make_host(sim)
    with pytest.raises(ValueError):
        host.ledger.charge("w", -1.0)
