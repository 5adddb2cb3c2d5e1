"""Unit tests for fault plans and the injector's bookkeeping."""

import pytest

from repro.core import Cell, CellSpec, ReplicationMode
from repro.faults import (DEFAULT_KINDS, SCENARIOS, FaultEvent,
                          FaultInjector, FaultPlan)
from repro.sim import RandomStream


def test_plan_generation_is_deterministic():
    a = FaultPlan.generate(RandomStream(7, "plan"), duration=2.0,
                           num_shards=3, num_clients=3)
    b = FaultPlan.generate(RandomStream(7, "plan"), duration=2.0,
                           num_shards=3, num_clients=3)
    assert a.schedule_lines() == b.schedule_lines()


def test_plan_generation_varies_with_seed():
    a = FaultPlan.generate(RandomStream(7, "plan"), duration=2.0,
                           num_shards=3)
    b = FaultPlan.generate(RandomStream(8, "plan"), duration=2.0,
                           num_shards=3)
    assert a.schedule_lines() != b.schedule_lines()


def test_plan_always_ends_with_heal_all():
    plan = FaultPlan.generate(RandomStream(1, "plan"), duration=1.5,
                              num_shards=3)
    events = plan.events
    assert events[-1].kind == "heal_all"
    assert events[-1].at == 1.5
    assert all(e.at <= 1.5 for e in events)


def test_plan_events_sorted_and_kinds_known():
    plan = FaultPlan.generate(RandomStream(42, "plan"), duration=5.0,
                              num_shards=4, num_clients=2)
    times = [e.at for e in plan.events]
    assert times == sorted(times)
    known = set(DEFAULT_KINDS) | {"heal_all"}
    assert {e.kind for e in plan.events} <= known
    # "nothing" slots are pacing only — never scheduled.
    assert "nothing" not in {e.kind for e in plan.events}


def test_plan_generate_rejects_unknown_kind():
    with pytest.raises(ValueError):
        FaultPlan.generate(RandomStream(1, "plan"), duration=10.0,
                           num_shards=3, kinds=["meteor-strike"])


def test_plan_add_and_describe():
    plan = FaultPlan()
    plan.add(0.5, "crash", shard=1, restart_delay=0.1)
    plan.add(0.25, "gray", duration=0.2, shard=0, loss_probability=0.5)
    assert len(plan) == 2
    lines = plan.schedule_lines()
    assert lines[0].startswith("t=0.250s gray")
    assert "for=0.2s" in lines[0]
    assert lines[1].startswith("t=0.500s crash")
    assert "shard=1" in lines[1]


def test_event_describe_formats_floats_compactly():
    event = FaultEvent(at=1.0, kind="gray",
                       args={"loss_probability": 0.123456, "shard": 2},
                       duration=0.25)
    text = event.describe()
    assert "loss_probability=0.123" in text
    assert "shard=2" in text
    assert "for=0.25s" in text


def _build_cell():
    return Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))


def test_injector_applies_partition_gray_and_heals():
    cell = _build_cell()
    client_host = cell.fabric.add_host("unit-client")
    backend = cell.backend_by_task(cell.task_for_shard(0))

    plan = FaultPlan()
    plan.add(0.01, "partition", client=0, shard=0)
    plan.add(0.02, "gray", duration=10.0, shard=0, loss_probability=0.5)
    plan.add(0.03, "heal")
    plan.add(0.05, "heal_all")

    injector = FaultInjector(cell, plan, client_hosts=[client_host])
    probes = []

    def probe():
        yield cell.sim.timeout(0.015)
        probes.append(("partitioned",
                       cell.fabric.is_partitioned(client_host,
                                                  backend.host)))
        yield cell.sim.timeout(0.01)   # t=0.025: gray installed
        probes.append(("fault", cell.fabric.host_fault(backend.host)))
        yield cell.sim.timeout(0.01)   # t=0.035: partition healed
        probes.append(("healed",
                       not cell.fabric.is_partitioned(client_host,
                                                      backend.host)))

    cell.sim.process(probe())
    cell.sim.run(until=injector.start())

    assert dict(probes)["partitioned"] is True
    assert dict(probes)["fault"] is not None
    assert dict(probes)["fault"].loss_probability == 0.5
    assert dict(probes)["healed"] is True
    # heal_all cleared the (10s-long) gray fault early.
    assert cell.fabric.host_fault(backend.host) is None

    outcomes = [(e.kind, outcome) for _, e, outcome in injector.injected]
    assert ("partition", "fired") in outcomes
    assert ("gray", "fired") in outcomes
    assert ("heal", "fired") in outcomes
    assert cell.metrics.total("cliquemap_faults_injected_total",
                              outcome="fired") == 4


def test_injector_skips_impossible_events():
    cell = _build_cell()
    plan = FaultPlan()
    plan.add(0.01, "heal")                      # nothing to heal
    plan.add(0.02, "partition", client=0, shard=0)  # no client hosts
    plan.add(0.03, "heal_all")
    injector = FaultInjector(cell, plan, client_hosts=[])
    cell.sim.run(until=injector.start())
    outcomes = [(e.kind, outcome) for _, e, outcome in injector.injected]
    assert ("heal", "skipped") in outcomes
    assert ("partition", "skipped") in outcomes
    assert cell.metrics.total("cliquemap_faults_injected_total",
                              outcome="skipped") == 2


def test_injector_crash_restarts_backend():
    cell = _build_cell()
    task = cell.task_for_shard(1)
    plan = FaultPlan()
    plan.add(0.01, "crash", shard=1, restart_delay=0.05)
    plan.add(0.02, "heal_all")
    injector = FaultInjector(cell, plan, client_hosts=[])

    cell.sim.run(until=injector.start())
    assert not cell.backend_by_task(task).alive   # injector done, still down
    cell.sim.run(until=cell.sim.now + 0.1)        # restart_delay elapses
    assert cell.backend_by_task(task).alive


def test_injector_records_marker_spans():
    cell = _build_cell()
    plan = FaultPlan()
    plan.add(0.01, "gray", duration=0.005, shard=0, latency_multiplier=2.0)
    plan.add(0.02, "heal_all")
    injector = FaultInjector(cell, plan, client_hosts=[])
    cell.sim.run(until=injector.start())
    names = [span.name for span in cell.tracer.finished]
    assert "fault.gray" in names
    assert "fault.heal_all" in names


# -- the scenario table -------------------------------------------------------

# Frozen from the builders the table replaced (`resize_plan` and the
# `observe` CLI's if/elif chain), at the parameters their callers used:
# name -> ((duration, num_shards, fault_at, fault_duration), lines).
SCENARIO_GOLDENS = {
    "none": ((1.6, 3, 0.8, 0.6), ["t=1.600s heal_all"]),
    "partition": ((1.6, 3, 0.8, 0.6), [
        "t=0.800s partition client=3 shard=0",
        "t=0.800s partition client=3 shard=1",
        "t=1.400s heal_all",
        "t=1.600s heal_all"]),
    "gray-loss": ((1.2, 3, 0.8, 0.6), [
        "t=0.800s gray loss_probability=0.5 shard=0 for=0.6s",
        "t=1.200s heal_all"]),
    "gray-slow": ((1.2, 3, 0.8, 0.6), [
        "t=0.800s gray latency_multiplier=8 shard=0 for=0.6s",
        "t=1.200s heal_all"]),
    "sor-brownout": ((1.2, 3, 0.2, 0.4), [
        "t=0.200s sor_brownout factor=0.1 for=0.4s",
        "t=1.200s heal_all"]),
    "resize": ((1.6, 3, 0.8, 0.6), [
        "t=0.800s resize action=grow count=1",
        "t=1.400s resize action=shrink count=1",
        "t=1.600s heal_all"]),
    "resize/cycle": ((1.6, 4, 0.8, 0.6), [
        "t=0.400s resize action=grow count=1",
        "t=1.040s resize action=shrink count=1",
        "t=1.600s heal_all"]),
    "resize/partition": ((2.0, 4, 0.8, 0.6), [
        "t=0.500s resize action=grow count=1",
        "t=0.520s partition client=3 shard=0",
        "t=0.520s partition client=3 shard=1",
        "t=1.000s heal",
        "t=1.000s heal",
        "t=1.300s resize action=shrink count=1",
        "t=2.000s heal_all"]),
    "resize/gray": ((1.6, 4, 0.8, 0.6), [
        "t=0.400s resize action=grow count=1",
        "t=0.416s gray loss_probability=0.25 shard=1 for=0.32s",
        "t=1.040s resize action=shrink count=1",
        "t=1.600s heal_all"]),
    "resize/target_crash": ((1.6, 4, 0.8, 0.6), [
        "t=0.400s resize action=grow count=1",
        "t=0.408s crash_task restart_delay=0.032 task=backend-4",
        "t=1.040s resize action=shrink count=1",
        "t=1.600s heal_all"]),
    "resize/pressure": ((1.2, 4, 0.8, 0.6), [
        "t=0.300s resize action=grow count=1",
        "t=0.780s resize action=shrink count=1",
        "t=1.200s heal_all"]),
}


def test_every_scenario_has_a_golden():
    assert sorted(SCENARIOS) == sorted(SCENARIO_GOLDENS)


@pytest.mark.parametrize("name", sorted(SCENARIO_GOLDENS))
def test_scenario_plan_matches_its_golden(name):
    params, lines = SCENARIO_GOLDENS[name]
    assert SCENARIOS[name].plan(*params).schedule_lines() == lines
