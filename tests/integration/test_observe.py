"""End-to-end observability plane: probers measure client-vantage SLIs,
a partitioned prober trips the availability burn-rate alert (and a
fault-free run trips nothing), and attaching the plane never perturbs
the workload's event sequence (seed-for-seed parity via clock taps)."""

import json

import pytest

from repro.analysis import run_scale_workload
from repro.core import Cell, CellSpec, ReplicationMode
from repro.faults import SoakConfig, run_soak
from repro.observe import ObserveConfig, Prober
from repro.tools import main


# The scenario table's "partition" row cuts the first prober off from
# the backends for shards 0 and 1 — two of the three replicas of every
# probe key, so quorum masking cannot hide the fault — over the default
# fault window.
FAULT_AT, HEAL_AT = 0.8, 1.4
SOAK_KWARGS = dict(seed=11, duration=1.6, settle=0.5, num_shards=3,
                   observe=True)


def test_healthy_cell_probes_clean_and_raises_no_alerts():
    report = run_soak(SoakConfig(scenario="none", **SOAK_KWARGS))
    assert report.ok
    assert report.sli is not None
    (prober_sli,) = report.sli["probers"].values()
    assert prober_sli["ops"] > 100
    assert prober_sli["availability"] == 1.0
    # The exact same seed/settings that fire the alert under partition
    # (below) stay silent when healthy: no false positives.
    assert report.alerts == []
    assert report.sli["alerts_fired"] == 0
    assert report.sli["scrapes"] > 0


def test_partitioned_prober_fires_availability_alert():
    report = run_soak(SoakConfig(scenario="partition", **SOAK_KWARGS))
    assert report.ok                 # quorum masks the cut for workload
    fires = [a for a in report.alerts if a["kind"] == "fire"]
    assert fires, report.alerts
    # The alert names the right objective and cell, and is stamped in
    # simulated time inside the fault window (burn-rate detection lag
    # is a few scrape intervals, well under the heal time).
    availability = [a for a in fires if a["objective"] == "availability"]
    assert availability, fires
    for alert in availability:
        assert alert["cell"] == "cell"
        assert FAULT_AT < alert["at"] < HEAL_AT
        assert alert["burn_long"] >= alert["factor"]
        assert alert["burn_short"] >= alert["factor"]
    # The prober saw real unavailability from the client vantage.
    (prober_sli,) = report.sli["probers"].values()
    assert prober_sli["availability"] < 1.0
    # After the heal + settle the alert resolves.
    assert any(a["kind"] == "resolve" and a["objective"] == "availability"
               for a in report.alerts)


def test_soak_exports_timeseries_and_trace(tmp_path):
    report = run_soak(SoakConfig(scenario="partition",
                                 export_dir=str(tmp_path), **SOAK_KWARGS))
    ts_path = tmp_path / "timeseries.json"
    trace_path = tmp_path / "trace.json"
    # The partition fires the availability alert, so this soak also
    # leaves a postmortem bundle next to the flat exports (PR 10).
    bundle_path = tmp_path / "postmortem-slo-alert"
    assert sorted(report.exports) == [str(bundle_path), str(ts_path),
                                      str(trace_path)]
    assert report.bundle == str(bundle_path)

    doc = json.loads(ts_path.read_text())
    assert doc["scrapes"] == report.sli["scrapes"]
    names = {s["name"] for s in doc["series"]}
    assert "cliquemap_probe_ops_total" in names
    assert "cliquemap_slo_alerts_total" in names
    assert [a["objective"] for a in doc["alerts"]["events"]
            if a["kind"] == "fire"]

    trace = json.loads(trace_path.read_text())
    phases = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert phases and all("ts" in e and "dur" in e for e in phases)


def test_observe_plane_is_idempotent_and_stops_with_cell():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3))
    plane = cell.observe(ObserveConfig(probers=1))
    assert cell.observe() is plane   # second call returns the same plane
    cell.sim.run(until=0.1)
    assert plane.scraper.scrapes > 0
    assert plane.probers[0].rounds > 10
    cell.close()
    rounds = plane.probers[0].rounds
    cell.sim.run(until=0.2)
    assert plane.probers[0].rounds == rounds    # probers stopped


def test_scraping_preserves_seed_for_seed_parity():
    """Tentpole guarantee: the plane observes without perturbing. The
    scraper rides clock taps, which consume no scheduling sequence
    numbers, so op outcomes, event counts, and final sim time are
    bit-identical with scraping on or off."""
    base = run_scale_workload(num_hosts=12, ops=600, batch=4)
    observed = run_scale_workload(num_hosts=12, ops=600, batch=4,
                                  observe=True)
    assert observed["digest"] == base["digest"]
    assert observed["events"] == base["events"]
    assert observed["sim_seconds"] == base["sim_seconds"]
    assert observed["scrapes"] > 0 and base["scrapes"] == 0


# -- operator CLI -------------------------------------------------------------

def test_cli_observe_partition_asserts_alert(tmp_path, capsys):
    code = main(["observe", "--fault", "partition", "--duration", "1.6",
                 "--settle", "0.5", "--assert-alert", "availability",
                 "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "SLO alert transitions" in out
    assert "availability" in out
    assert (tmp_path / "timeseries.json").exists()
    assert (tmp_path / "trace.json").exists()


def test_cli_observe_healthy_asserts_no_alerts(tmp_path, capsys):
    code = main(["observe", "--fault", "none", "--duration", "1.2",
                 "--settle", "0.4", "--assert-no-alerts",
                 "--out-dir", str(tmp_path)])
    assert code == 0, capsys.readouterr().out


def test_cli_observe_assertion_failure_exits_nonzero(tmp_path, capsys):
    code = main(["observe", "--fault", "none", "--duration", "1.2",
                 "--settle", "0.4", "--assert-alert", "availability",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "alert to fire" in capsys.readouterr().out


@pytest.mark.parametrize("fault", ["gray-loss", "gray-slow"])
def test_cli_observe_gray_faults_run_clean(fault, tmp_path, capsys):
    # Gray faults degrade rather than partition; the run must complete
    # with invariants intact whether or not an alert fires.
    code = main(["observe", "--fault", fault, "--duration", "1.2",
                 "--settle", "0.4", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "invariants hold" in out


@pytest.mark.parametrize("read_back", [b"never-written", b"other-key"])
def test_prober_books_a_lost_write_as_corrupt(read_back, monkeypatch):
    """A GET that misses (or returns another value) right after an
    applied SET is the ``corrupt`` verdict — a data-integrity failure —
    and it takes the availability SLI below 1."""
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3))
    writer = cell.connect_client()
    cell.sim.run(until=cell.sim.process(writer.set(b"other-key", b"stale")))
    prober = Prober(cell)
    real_get = prober.client.get
    # The round's read lands on another key: the write it just made is
    # lost from the prober's vantage.
    monkeypatch.setattr(prober.client, "get",
                        lambda _key, deadline=None:
                        real_get(read_back, deadline=deadline))
    prober.start()
    cell.sim.run(until=cell.sim.now + 0.02)
    prober.stop()
    cell.sim.run(until=cell.sim.now + 0.01)   # the last round completes
    probes = cell.metrics.total
    assert probes("cliquemap_probe_ops_total", op="set", result="ok") == \
        probes("cliquemap_probe_ops_total", op="get",
               result="corrupt") == prober.rounds > 0
    assert probes("cliquemap_probe_ops_total", op="get", result="ok") == 0
    assert prober.sli()["availability"] < 1.0
