"""Tests for the operator CLI (`python -m repro.tools`)."""

import pytest

from repro.tools import build_parser, main


def test_parser_lists_all_commands():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if hasattr(a, "choices") and a.choices)
    assert set(sub.choices) == {"drill", "metrics", "model-check",
                                "trace", "chaos", "perf", "observe"}


def test_chaos_command(capsys):
    assert main(["chaos", "--seed", "1", "--duration", "0.6",
                 "--settle", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "fault plan (seed=1)" in out
    assert "injected faults" in out
    assert "reactions" in out
    assert "cliquemap_faults_injected_total" in out
    assert "invariants hold" in out


def _soak_flag_choices(command, flag):
    sub = next(a for a in build_parser()._actions
               if hasattr(a, "choices") and a.choices)
    return next(a.choices for a in sub.choices[command]._actions
                if flag in a.option_strings)


def test_soak_scenario_flags_offer_exactly_the_table():
    from repro.faults import SCENARIOS

    resize = ["resize/" + name
              for name in _soak_flag_choices("chaos", "--resize")]
    faults = list(_soak_flag_choices("observe", "--fault"))
    assert sorted(resize + faults) == sorted(SCENARIOS)
    assert "partition" in faults and "resize/partition" in resize


def test_soak_report_renders_each_section_at_most_once():
    import dataclasses

    from repro.analysis import render_soak_report
    from repro.faults import SoakConfig, SoakReport

    titles = ("miss path (read-through coordinator)", "resize (resize)",
              "client population (N=50)")
    bare = SoakReport(config=SoakConfig(seed=9, scenario="resize"),
                      plan_lines=["t=1.000s heal_all"], injected=[],
                      bad_hits=[], unrecovered=[], diverged=[],
                      metric_totals={"cliquemap_retries_total": 3.0})
    out = render_soak_report(bare)
    assert "fault plan (seed=9)" in out and "reactions" in out
    assert not any(title in out for title in titles)
    assert "SLIs (prober vantage)" not in out and "wrote " not in out

    full = dataclasses.replace(
        bare, exports=["/x/timeseries.json"],
        foreground={"writer_set_failures": 0, "reader_inquorate": 0},
        sor_stats={"coordinator": {"fetches": 4, "coalesced": 2},
                   "backfill_shed": 1.0, "sor_reads": 4, "sor_writes": 0,
                   "sor_throttled": 0,
                   "cold_reads": {"hits": 3, "bad_hits": 0}},
        resize_stats={"controller": dict.fromkeys(
            ["grows", "shrinks", "aborted", "sweeps", "entries_backfilled",
             "entries_purged"], 1), "shadow_writes": 5.0, "pressure": None},
        population_stats={"modeled_clients": 50, "drivers": 2,
                          "offered": 10, "delivered": 8, "thinned": 1,
                          "shed": 1, "shed_rate": 0.1, "hit_rate": 1.0,
                          "errors": 0})
    out = render_soak_report(full)
    for title in titles:
        assert out.count(title) == 1, title
    assert "wrote /x/timeseries.json" in out


def test_model_check_command(capsys):
    assert main(["model-check", "--sets", "1", "--erases", "0",
                 "--no-crash"]) == 0
    out = capsys.readouterr().out
    assert "all invariants hold" in out


def test_metrics_command(capsys):
    assert main(["metrics", "--shards", "3", "--keys", "20",
                 "--ops", "60", "--demo"]) == 0
    out = capsys.readouterr().out
    assert "cliquemap_ops_total" in out
    assert "cliquemap_op_latency_seconds" in out
    assert "last op trace" in out
    assert "fabric.deliver" in out


def test_drill_planned(capsys):
    assert main(["drill", "planned"]) == 0
    assert "50/50" in capsys.readouterr().out


def test_drill_unplanned(capsys):
    """The drill runs a real restart recovery: the restarted backend
    holds its keys again, not just the quorum around it."""
    assert main(["drill", "unplanned"]) == 0
    out = capsys.readouterr().out
    assert "50/50 keys readable" in out
    assert "50/50 resident again" in out


def test_trace_synthesize_and_replay(tmp_path, capsys):
    trace_file = str(tmp_path / "ops.trace")
    assert main(["trace", "--ops", "200", "--keys", "30",
                 "--output", trace_file]) == 0
    assert "wrote 200 ops" in capsys.readouterr().out
    assert main(["trace", "--input", trace_file]) == 0
    out = capsys.readouterr().out
    assert "trace replay" in out
    assert "hit rate" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_perf_command(capsys, tmp_path):
    out_path = tmp_path / "BENCH_multiget.json"
    assert main(["perf", "--keys", "8", "--shards", "3",
                 "--output", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "multiget benchmark" in out
    assert "speedup" in out
    assert out_path.exists()
    import json
    data = json.loads(out_path.read_text())
    assert data["benchmark"] == "multiget"
    assert data["engine_cpu_speedup"] >= 2.0


def test_perf_history_command(capsys, tmp_path):
    import json
    (tmp_path / "BENCH_kernel.json").write_text(json.dumps({
        "benchmark": "kernel", "floor_events_per_sec": 10.0,
        "new": {"events_per_sec": 100.0},
        "legacy": {"events_per_sec": 50.0}}))
    assert main(["perf", "history", "--root", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "perf trajectory" in out
    assert "events_per_sec" in out
    # A metric under its floor turns the exit code red.
    (tmp_path / "BENCH_kernel.json").write_text(json.dumps({
        "benchmark": "kernel", "floor_events_per_sec": 1000.0,
        "new": {"events_per_sec": 100.0},
        "legacy": {"events_per_sec": 50.0}}))
    assert main(["perf", "history", "--root", str(tmp_path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_trace_federation_demo_stitch_and_flight(tmp_path, capsys):
    import json
    save = tmp_path / "zones.json"
    perfetto = tmp_path / "stitched.json"
    assert main(["trace", "--federation-demo", "--zones", "2",
                 "--duration", "0.08", "--assert-cross-zone",
                 "--save", str(save), "--out", str(perfetto)]) == 0
    out = capsys.readouterr().out
    assert "stitched" in out and "cross-zone" in out
    assert "fed.get" in out or "fed.set" in out
    doc = json.loads(save.read_text())
    assert doc["zones"] and sorted(doc["zones"]) == ["dc-a", "dc-b"]
    assert json.loads(perfetto.read_text())["traceEvents"]

    # Offline re-stitch of the saved zone traces, with filters.
    assert main(["trace", "--stitch", str(save), "--zone", "dc-b",
                 "--limit", "1"]) == 0
    out = capsys.readouterr().out
    assert "after filters" in out and "cross-zone" in out
    assert "[  dc-b]" in out

    # Flight query over a postmortem bundle.
    from repro.telemetry import FlightRecorder
    from repro.observe.postmortem import write_postmortem_bundle
    clock = lambda: 1.5  # noqa: E731
    flight = FlightRecorder(clock, capacity=8)
    flight.record("fault", origin="fault-injector", fault="partition")
    flight.record("op", origin="client-0", op="get", status="hit")
    bundle = write_postmortem_bundle(str(tmp_path), "unit", flight=flight)
    assert main(["trace", "--flight", bundle, "--kind", "fault"]) == 0
    out = capsys.readouterr().out
    assert "fault-injector" in out and "client-0" not in out


def test_chaos_flight_export_healthy_no_bundle(tmp_path, capsys):
    assert main(["chaos", "--seed", "1", "--duration", "0.4",
                 "--settle", "0.8", "--flight",
                 "--export-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "invariants hold" in out
    assert "postmortem bundle" not in out
    from repro.observe.postmortem import find_bundles
    assert find_bundles(str(tmp_path)) == []
