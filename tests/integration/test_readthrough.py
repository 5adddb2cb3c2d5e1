"""Integration: the miss pipeline under load and SoR brownout."""

from repro.core import Cell, CellSpec, GetStatus, ReplicationMode
from repro.faults import SCENARIOS, SoakConfig, run_soak
from repro.storage import MissPolicy, SystemOfRecord


def test_end_to_end_fill_then_cache_hit():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))
    sor_host = cell.fabric.add_host("host/sor")
    sor = SystemOfRecord(cell.sim, sor_host)
    sor.load({b"cold": b"durable"})
    cell.attach_sor(sor, MissPolicy())
    client = cell.connect_client()

    def app():
        first = yield from client.get(b"cold")
        second = yield from client.get(b"cold")
        return first, second

    first, second = cell.sim.run(until=cell.sim.process(app()))
    assert (first.status, first.source) == (GetStatus.HIT, "sor")
    assert (second.status, second.source) == (GetStatus.HIT, "cache")
    assert sor.reads == 1  # the fill made the second GET free
    # Fills ride the internal principal, not the app's ACL identity.
    assert second.latency < first.latency
    client.close()
    cell.close()


def test_warm_prefetches_within_budget():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))
    sor_host = cell.fabric.add_host("host/sor")
    sor = SystemOfRecord(cell.sim, sor_host)
    keys = [b"w-%03d" % i for i in range(20)]
    sor.load({key: b"v:" + key for key in keys})
    coordinator = cell.attach_sor(sor, MissPolicy(
        backfill_budget=8.0, backfill_fill_rate=0.0))

    def app():
        return (yield from coordinator.warm(keys))

    report = cell.sim.run(until=cell.sim.process(app()))
    assert report["requested"] == 20
    assert report["hits"] == 8       # budget admits exactly 8
    assert report["shed"] == 12      # the rest shed, not queued
    assert sor.reads == 8
    cell.close()


def test_soak_brownout_sheds_backfill_without_alerts():
    """ISSUE 6 acceptance: SoR brownout + budgets shed load, SLO holds."""
    # The table's row attaches the SoR, its backfill herd and the plane;
    # its brownout lands at 0.2 s for 0.4 s and heals at 1.2 s.
    report = run_soak(SoakConfig(
        duration=1.4, settle=0.5, seed=11, scenario="sor-brownout",
        plan=SCENARIOS["sor-brownout"].plan(1.2, 3, 0.2, 0.4)))

    # Core soak invariants on the well-behaved keyspace.
    assert report.ok, (report.bad_hits, report.unrecovered, report.diverged)
    stats = report.sor_stats
    assert stats is not None
    # The brownout fired against the attached SoR.
    assert any("sor_brownout" in line and "fired" in line
               for line in report.injected)
    # Backfill traffic was visibly shed by the admission budget...
    assert stats["backfill_shed"] > 0
    # ...while foreground cold reads kept resolving correctly.
    assert stats["cold_reads"]["hits"] > 0
    assert stats["cold_reads"]["bad_hits"] == 0
    assert stats["cold_reads"]["errors"] == 0
    # And no SLO burn-rate alert fired from the prober's vantage.
    fired = [a for a in report.alerts if a["kind"] == "fire"]
    assert fired == []


def test_soak_without_sor_is_byte_identical_to_seed_behavior():
    """config.sor defaults keep pre-miss-path soaks deterministic."""
    first = run_soak(SoakConfig(duration=0.6, settle=0.4, seed=3))
    second = run_soak(SoakConfig(duration=0.6, settle=0.4, seed=3))
    assert first.sor_stats is None
    assert first.metric_totals == second.metric_totals
