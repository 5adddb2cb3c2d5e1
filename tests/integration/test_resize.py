"""Elastic cells: online grow/shrink under traffic, chaos scenarios,
controller races, and the SLO-driven autoscaler closed loop.

The resize acceptance criteria from the paper's productionization story
(§6.1): capacity is added or returned without failing a request. A
fault-free grow+shrink cycle must show zero failed foreground ops, zero
inquorate GETs, and a silent availability alert; a resize racing a
partition must complete with bounded retries while the burn-rate alert
fires and resolves; a migration-target crash mid-handoff either rides
repair-driven retries to completion or aborts cleanly back to the old
assignment.
"""

import pytest

from repro.core import (Cell, CellSpec, CliqueMapError, GetStatus,
                        MaintenanceConfig, RepairConfig, ReplicationMode,
                        ResizeConfig, SetStatus)
from repro.faults import SCENARIOS, SoakConfig, run_soak
from repro.observe import AutoscalerConfig, ObserveConfig

FAST_RESIZE = ResizeConfig(max_sweeps=20, sweep_interval=0.005,
                           drain_grace=0.02)


def make_cell(num_shards=3, num_spares=0, resize_config=None, seed=101):
    return Cell(CellSpec(
        mode=ReplicationMode.R3_2, num_shards=num_shards,
        num_spares=num_spares, transport="pony", seed=seed,
        repair_config=RepairConfig(enabled=True, scan_interval=0.25),
        maintenance_config=MaintenanceConfig(restart_delay=0.05),
        resize_config=resize_config or FAST_RESIZE))


def seed_keys(cell, client, count, prefix=b"k"):
    def loop():
        for i in range(count):
            result = yield from client.set(b"%s-%d" % (prefix, i), b"v%d" % i)
            assert result.status is SetStatus.APPLIED
    cell.sim.run(until=cell.sim.process(loop()))


def count_hits(cell, client, count, prefix=b"k"):
    def loop():
        hits = 0
        for i in range(count):
            result = yield from client.get(b"%s-%d" % (prefix, i),
                                           deadline=0.5)
            hits += result.status is GetStatus.HIT
        return hits
    return cell.sim.run(until=cell.sim.process(loop()))


# ---------------------------------------------------------------------------
# Direct grow/shrink behavior
# ---------------------------------------------------------------------------

def test_grow_extends_layout_and_keeps_every_key_readable():
    cell = make_cell(num_shards=3)
    client = cell.connect_client()
    seed_keys(cell, client, 60)

    summary = cell.sim.run(until=cell.sim.process(cell.grow(2)))
    assert summary["outcome"] == "completed"
    assert summary["shards_before"] == 3
    assert summary["shards_after"] == 5

    config = cell.config_store.peek(cell.spec.name)
    assert len(config.shard_tasks) == 5
    assert not config.resize_active
    assert cell.placement.num_shards == 5
    assert count_hits(cell, client, 60) == 60
    # Joiners actually serve: each holds some backfilled entries.
    for task in config.shard_tasks[3:]:
        assert cell.backends[task].alive


def test_shrink_drains_named_tasks_and_keeps_every_key_readable():
    cell = make_cell(num_shards=5)
    client = cell.connect_client()
    seed_keys(cell, client, 60)

    summary = cell.sim.run(
        until=cell.sim.process(cell.shrink(tasks=["backend-4"])))
    assert summary["outcome"] == "completed"
    assert summary["shards_after"] == 4

    config = cell.config_store.peek(cell.spec.name)
    assert "backend-4" not in config.shard_tasks
    assert not cell.backends["backend-4"].alive
    assert count_hits(cell, client, 60) == 60


def test_shrink_below_replication_raises():
    cell = make_cell(num_shards=3)

    def attempt():
        try:
            yield from cell.shrink(count=1)
        except CliqueMapError as exc:
            return exc
        return None

    exc = cell.sim.run(until=cell.sim.process(attempt()))
    assert exc is not None and "below replication" in str(exc)
    # The failed attempt released the topology lock and cleared state.
    assert cell.topology_lock.count == 0
    assert not cell.resize.active


def test_concurrent_resize_rejected_cleanly():
    cell = make_cell(num_shards=3)
    client = cell.connect_client()
    seed_keys(cell, client, 20)
    first = cell.sim.process(cell.grow(1))

    def second():
        yield cell.sim.timeout(1e-3)     # first resize is mid-handoff
        try:
            yield from cell.grow(1)
        except CliqueMapError as exc:
            return exc
        return None

    exc = cell.sim.run(until=cell.sim.process(second()))
    assert exc is not None and "already in flight" in str(exc)
    summary = cell.sim.run(until=first)
    assert summary["outcome"] == "completed"
    assert count_hits(cell, client, 20) == 20


def test_grow_aborts_cleanly_when_target_never_returns():
    cell = make_cell(resize_config=ResizeConfig(
        max_sweeps=3, sweep_interval=0.002, drain_grace=0.01))
    client = cell.connect_client()
    seed_keys(cell, client, 30)
    sim = cell.sim
    before = cell.config_store.peek(cell.spec.name)

    def killer():
        # The first joiner on a fresh 3-shard cell is backend-3; kill
        # it as soon as it exists and never restart it.
        while "backend-3" not in cell.backends:
            yield sim.timeout(1e-4)
        cell.backends["backend-3"].stop()

    kproc = sim.process(killer())
    kproc.defused = True
    summary = sim.run(until=sim.process(cell.grow(1)))
    assert summary["outcome"] == "aborted"
    assert cell.resize.stats.aborted == 1

    after = cell.config_store.peek(cell.spec.name)
    assert after.shard_tasks == before.shard_tasks
    assert not after.resize_active
    assert cell.topology_lock.count == 0
    assert count_hits(cell, client, 30) == 30


def test_resize_events_and_backfill_metrics_counted():
    cell = make_cell(num_shards=3)
    client = cell.connect_client()
    seed_keys(cell, client, 40)
    cell.sim.run(until=cell.sim.process(cell.grow(1)))
    assert cell.metrics.total("cliquemap_resize_events_total") >= 2
    assert cell.metrics.total(
        "cliquemap_resize_backfill_entries_total") > 0
    assert cell.resize.stats.entries_backfilled > 0


# ---------------------------------------------------------------------------
# Resize chaos scenarios (the soak harness the CLI and CI run)
# ---------------------------------------------------------------------------

def test_fault_free_cycle_has_zero_foreground_impact():
    """ISSUE acceptance: a grow+shrink cycle under traffic with no
    faults shows zero failed foreground ops, zero inquorate GETs, and a
    silent availability alert."""
    report = run_soak(SoakConfig(
        seed=11, duration=1.6, settle=0.5, num_shards=4, num_keys=16,
        scenario="resize/cycle", observe=True, resize_config=FAST_RESIZE))
    assert report.ok
    ctl = report.resize_stats["controller"]
    assert ctl["grows"] == 1 and ctl["shrinks"] == 1
    assert ctl["aborted"] == 0
    assert report.foreground["writer_set_failures"] == 0
    assert report.foreground["reader_errors"] == 0
    assert report.foreground["reader_inquorate"] == 0
    assert not any(a["objective"] == "availability"
                   for a in report.alerts), report.alerts
    # Dual-writes actually shadowed mutations onto the target cohort.
    assert report.resize_stats["shadow_writes"] > 0


def test_resize_during_partition_completes_and_alerts_resolve():
    """ISSUE acceptance: resize racing a partition completes with
    bounded retries; the availability alert fires and resolves."""
    report = run_soak(SoakConfig(
        seed=7, duration=2.0, settle=1.0, num_shards=4, num_keys=16,
        scenario="resize/partition", observe=True,
        resize_config=FAST_RESIZE))
    assert report.ok
    ctl = report.resize_stats["controller"]
    assert ctl["grows"] == 1 and ctl["shrinks"] == 1
    fired = [a for a in report.alerts
             if a["kind"] == "fire" and a["objective"] == "availability"]
    assert fired, report.alerts
    assert any(a["kind"] == "resolve" and a["objective"] == "availability"
               for a in report.alerts), report.alerts
    # Bounded retries: the run spent retries but did not exhaust the
    # reader into terminal errors after the heal.
    assert report.metric_totals["cliquemap_retries_total"] > 0


def test_resize_survives_migration_target_crash():
    report = run_soak(SoakConfig(
        seed=13, duration=1.6, settle=1.0, num_shards=4, num_keys=16,
        scenario="resize/target_crash", resize_config=FAST_RESIZE))
    assert report.ok
    ctl = report.resize_stats["controller"]
    # The crash either rode repair-driven sweeps to completion or
    # aborted cleanly back to the old assignment — never a hang, never
    # a violated invariant.
    assert ctl["grows"] + ctl["aborted"] >= 1
    assert any("crash_task" in line and "fired" in line
               for line in report.injected)


def test_resize_under_gray_loss_holds_invariants():
    report = run_soak(SoakConfig(
        seed=17, duration=1.6, settle=1.0, num_shards=4, num_keys=16,
        scenario="resize/gray", resize_config=FAST_RESIZE))
    assert report.ok
    assert report.resize_stats["controller"]["grows"] == 1


def test_resize_under_eviction_pressure_serves_no_garbage():
    # The table's row shrinks the data arena and pads the pressure
    # writer's values so capacity evictions churn mid-handoff.
    report = run_soak(SoakConfig(
        seed=19, duration=1.2, settle=1.0, num_shards=4, num_keys=16,
        scenario="resize/pressure", resize_config=FAST_RESIZE))
    assert report.ok
    assert report.resize_stats["pressure"]["writes"] > 100
    assert report.bad_hits == []


def test_resize_plan_rejects_unknown_scenario():
    with pytest.raises(CliqueMapError):
        run_soak(SoakConfig(scenario="nope"))
    resize_scenarios = [name for name in SCENARIOS
                        if name.startswith("resize")]
    assert resize_scenarios
    for name in resize_scenarios:
        plan = SCENARIOS[name].plan(duration=1.0, num_shards=3)
        kinds = [e.kind for e in plan.events]
        assert kinds.count("resize") == 2


# ---------------------------------------------------------------------------
# Controller interleavings (satellite: races serialize or fail cleanly)
# ---------------------------------------------------------------------------

def test_resize_serializes_with_planned_maintenance():
    cell = make_cell(num_shards=3, num_spares=1)
    client = cell.connect_client()
    seed_keys(cell, client, 40)
    sim = cell.sim

    maintenance = sim.process(cell.maintenance.planned_restart(0))
    resize = sim.process(cell.grow(1))
    sim.run(until=sim.all_of([maintenance, resize]))

    summary = resize.value
    assert summary["outcome"] == "completed"
    config = cell.config_store.peek(cell.spec.name)
    assert len(config.shard_tasks) == 4
    assert not config.resize_active
    assert cell.topology_lock.count == 0
    assert count_hits(cell, client, 40) == 40


def test_planned_restart_races_unplanned_crash_on_same_shard():
    cell = make_cell(num_shards=3, num_spares=1)
    client = cell.connect_client()
    seed_keys(cell, client, 40)
    sim = cell.sim

    planned = sim.process(cell.maintenance.planned_restart(0))
    planned.defused = True
    crash = sim.process(
        cell.maintenance.unplanned_crash(0, restart_delay=0.05))
    crash.defused = True
    sim.run(until=sim.now + 2.0)
    assert not planned.is_alive and not crash.is_alive
    # Either interleaving must end with the lock free, a consistent
    # config, and every key readable after repair settles.
    assert cell.topology_lock.count == 0
    sim.run(until=sim.now + 1.0)
    assert count_hits(cell, client, 40) == 40
    config = cell.config_store.peek(cell.spec.name)
    for shard in range(3):
        assert cell.backends[config.task_for_shard(shard)].alive


def test_repair_rpc_errors_surface_in_stats_and_metrics():
    """Satellite: migration/repair RPC failures are counted, not
    silently swallowed."""
    cell = make_cell(num_shards=3)
    client = cell.connect_client()
    seed_keys(cell, client, 10)
    cell.backends["backend-1"].stop()
    scanner = cell.scanner_for("backend-0")

    def recover():
        return (yield from scanner.recover_from(["backend-1"]))

    cell.sim.run(until=cell.sim.process(recover()))
    assert scanner.stats.rpc_errors > 0
    assert cell.metrics.total("cliquemap_repair_rpc_errors_total") > 0


# ---------------------------------------------------------------------------
# Autoscaler closed loop
# ---------------------------------------------------------------------------

def test_autoscaler_grows_on_burn_alert_and_respects_cooldown():
    cell = make_cell(num_shards=3)
    plane = cell.observe(ObserveConfig())
    scaler = plane.autoscale(AutoscalerConfig(
        scale_out_rps=1e12, scale_in_rps=1.0, cooldown=10.0,
        min_shards=3, max_shards=8))
    scaler.stop()                      # drive evaluations by hand
    sim = cell.sim
    # Force an active availability burn alert.
    plane.engine.active[("availability", cell.spec.name, "page")] = object()

    sim.run(until=sim.process(scaler.evaluate_once()))
    assert scaler.stats.grows == 1
    assert scaler.decisions[-1]["action"] == "grow"
    assert scaler.decisions[-1]["reason"] == "slo-burn-alert"
    assert len(cell.config_store.peek(cell.spec.name).shard_tasks) == 4

    # Still alerting, but inside the cooldown: hold, don't flap. (The
    # engine loop resolved the injected alert while the grow ran, so
    # stuff it again.)
    plane.engine.active[("availability", cell.spec.name, "page")] = object()
    sim.run(until=sim.process(scaler.evaluate_once()))
    assert scaler.stats.grows == 1
    assert scaler.decisions[-1]["action"] == "hold"
    assert scaler.decisions[-1]["reason"] == "cooldown"
    plane.stop()


def test_autoscaler_blocked_while_resize_active():
    cell = make_cell(num_shards=3)
    plane = cell.observe(ObserveConfig())
    scaler = plane.autoscale(AutoscalerConfig(
        scale_out_rps=1e12, scale_in_rps=1.0))
    scaler.stop()
    sim = cell.sim
    plane.engine.active[("availability", cell.spec.name, "page")] = object()
    resize = sim.process(cell.grow(1))

    def race():
        yield sim.timeout(1e-3)        # grow is mid-handoff
        yield from scaler.evaluate_once()

    sim.run(until=sim.process(race()))
    assert scaler.stats.blocked == 1
    assert scaler.decisions[-1]["action"] == "blocked"
    sim.run(until=resize)
    plane.stop()


def _autoscaler_closed_loop(seed):
    """Busy window -> grow; idle window -> hysteresis-gated shrink."""
    cell = make_cell(num_shards=3, seed=seed)
    plane = cell.observe(ObserveConfig())
    plane.autoscale(AutoscalerConfig(
        evaluate_interval=0.05, load_window=0.05,
        scale_out_rps=2000.0, scale_in_rps=1500.0,
        min_shards=3, max_shards=5, cooldown=0.15,
        hysteresis_rounds=2))
    scaler = plane.autoscaler
    sim = cell.sim
    client = cell.connect_client()
    seed_keys(cell, client, 32)
    busy = [True]

    def load_loop():
        generation = 0
        while busy[0]:
            generation += 1
            yield from client.set(b"k-%d" % (generation % 32),
                                  b"v%d" % generation)
            yield sim.timeout(0.15e-3)

    loader = sim.process(load_loop())
    sim.run(until=sim.now + 0.6)       # busy window
    busy[0] = False
    sim.run(until=loader)
    sim.run(until=sim.now + 1.2)       # idle window
    plane.stop()
    serving = len(cell.config_store.peek(cell.spec.name).shard_tasks)
    actions = [(d["action"], d["reason"]) for d in scaler.decisions]
    return scaler.stats, actions, serving


def test_autoscaler_closed_loop_deterministic_under_fixed_seed():
    """ISSUE acceptance: the load burst scales the cell out, the idle
    window scales it back in after hysteresis, and the whole decision
    sequence is identical run-for-run under a fixed seed."""
    stats_a, actions_a, serving_a = _autoscaler_closed_loop(seed=23)
    stats_b, actions_b, serving_b = _autoscaler_closed_loop(seed=23)
    assert stats_a.grows >= 1
    assert stats_a.shrinks >= 1
    assert ("grow", "load-high") in actions_a
    assert ("shrink", "load-low") in actions_a
    assert ("hold", "hysteresis") in actions_a
    assert serving_a == 3              # returned to the floor
    assert actions_a == actions_b
    assert serving_a == serving_b
    assert (stats_a.grows, stats_a.shrinks) == \
        (stats_b.grows, stats_b.shrinks)
