"""Operator command-line tools.

Run with ``python -m repro.tools <command>``:

* ``drill``        — planned + unplanned maintenance drills (Figs 13/14).
* ``metrics``      — print the telemetry registry of a live cell
  (``--demo`` runs a small workload first and renders an op trace).
* ``chaos``        — seeded fault-injection soak: print the fault plan,
  the injected events, and the reaction metric tables.
* ``observe``      — the same soak path under the observability plane
  (time-series scraping + SLO burn-rate alerting), optionally with one
  fault from the scenario table; writes ``timeseries.json``/
  ``trace.json`` and adds the SLI and alert tables.
* ``perf``         — batched-vs-singleton multiget measurement; emits
  ``BENCH_multiget.json`` for the perf trajectory.
* ``perf profile`` — run a sharded federation with one cProfile per
  worker and print the aggregated top-N hot spots (per-layer host
  profiles of the benchmark workloads are
  ``benchmarks/perf/run.py --trace 1``).
* ``perf history`` — aggregate every ``BENCH_*.json`` into one
  perf-trajectory table and fail on a metric under its floor or over
  its ceiling.
* ``trace``        — synthesize/replay op traces; with ``--stitch`` /
  ``--flight`` / ``--federation-demo``, stitch cross-zone distributed
  traces and query postmortem flight-recorder dumps.
* ``model-check``  — explicit-state check of the R=3.2 protocol.
"""

from __future__ import annotations

import argparse
import sys


def cmd_drill(args: argparse.Namespace) -> int:
    from ..core import (Cell, CellSpec, GetStatus, MaintenanceConfig,
                        RepairConfig, ReplicationMode)

    # Repair on (its scans idle): without a scanner the unplanned drill
    # skips restart recovery and the quorum masks an empty replica.
    cell = Cell(CellSpec(
        mode=ReplicationMode.R3_2, num_shards=3, num_spares=1,
        transport="pony",
        repair_config=RepairConfig(enabled=True, scan_interval=100.0),
        maintenance_config=MaintenanceConfig(restart_delay=0.3)))
    client = cell.connect_client()
    sim = cell.sim

    def app():
        for i in range(50):
            yield from client.set(b"k-%d" % i, b"v")
        held = cell.backend_by_task(cell.task_for_shard(0)).resident_keys
        if args.kind == "planned":
            yield from cell.maintenance.planned_restart(0)
        else:
            yield from cell.maintenance.unplanned_crash(0,
                                                        restart_delay=0.3)
        hits = 0
        for i in range(50):
            result = yield from client.get(b"k-%d" % i)
            hits += result.status is GetStatus.HIT
        return hits, held

    hits, held = sim.run(until=sim.process(app()))
    back = cell.backend_by_task(cell.task_for_shard(0)).resident_keys
    print(f"{args.kind} drill: {hits}/50 keys readable after the event, "
          f"{back}/{held} resident again on the restarted backend")
    return 0 if hits == 50 and back == held else 1


def cmd_metrics(args: argparse.Namespace) -> int:
    from ..analysis import render_metrics
    from ..core import Cell, CellSpec, ReplicationMode

    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=args.shards,
                         transport=args.transport))
    with cell:
        with cell.connect_client() as client:

            def app():
                for i in range(args.keys):
                    yield from client.set(b"k-%d" % i, b"x" * 128)
                for i in range(args.ops):
                    # ~1/4 of GETs miss: exercise both status series.
                    yield from client.get(
                        b"k-%d" % (i % (args.keys + args.keys // 3 + 1)))

            cell.sim.run(until=cell.sim.process(app()))
        print(render_metrics(cell.metrics.snapshot(),
                             title=f"cell {cell.spec.name!r}"))
        if args.demo:
            last = cell.tracer.last()
            if last is not None:
                print()
                print(f"last op trace ({last.name}):")
                print(last.render())
    return 0


def _trace_filters(args: argparse.Namespace, traces):
    from ..analysis import filter_traces

    return filter_traces(
        traces, zone=args.zone or None, op=args.op or None,
        min_latency=args.min_latency, errors_only=args.errors_only)


def _print_stitched(args: argparse.Namespace, traces) -> None:
    cross = sum(1 for t in traces if t.cross_zone)
    print(f"{len(traces)} trace(s) after filters ({cross} cross-zone)")
    for trace in traces[:args.limit]:
        print()
        print(trace.render())
    if len(traces) > args.limit:
        print(f"\n... {len(traces) - args.limit} more "
              f"(raise --limit to see them)")
    if args.out:
        from ..analysis import write_stitched_chrome_trace
        events = write_stitched_chrome_trace(args.out, traces)
        print(f"\nwrote {events} trace events to {args.out} "
              f"(load in Perfetto / chrome://tracing)")


def _trace_stitch(args: argparse.Namespace) -> int:
    """Stitch per-zone span trees from a JSON export or bundle."""
    import json as _json

    from ..analysis import stitch_traces

    with open(args.stitch) as fh:
        doc = _json.load(fh)
    if "zones" in doc:
        zone_traces = doc["zones"]
    elif "traces" in doc:
        # A postmortem bundle's traces.json: one cell, one zone.
        zone_traces = {"cell": doc["traces"]}
    else:
        print(f"unrecognized trace file {args.stitch!r}: expected a "
              f"'zones' map or a bundle's 'traces' list")
        return 1
    traces = _trace_filters(args, stitch_traces(zone_traces))
    _print_stitched(args, traces)
    return 0


def _trace_flight(args: argparse.Namespace) -> int:
    """Query a flight-recorder dump from a postmortem bundle."""
    import json as _json
    import os as _os

    path = args.flight
    if _os.path.isdir(path):
        path = _os.path.join(path, "flight.json")
    with open(path) as fh:
        doc = _json.load(fh)
    events = doc.get("events", [])
    if args.kind:
        events = [e for e in events if e["kind"] == args.kind]
    if args.origin:
        events = [e for e in events if args.origin in e.get("origin", "")]
    if args.last is not None:
        events = events[-args.last:]
    print(f"{len(events)} event(s) (ring recorded "
          f"{doc.get('recorded', '?')} total)")
    for e in events:
        fields = " ".join(f"{k}={v}" for k, v in
                          sorted(e.get("fields", {}).items()))
        print(f"[{e['t']:12.6f}s #{e['seq']:>6}] {e['kind']:<11} "
              f"{e.get('origin', ''):<24} {fields}".rstrip())
    return 0


def _trace_federation_demo(args: argparse.Namespace) -> int:
    """Run a small sharded federation and stitch its cross-zone traces."""
    import json as _json

    from ..analysis import (run_federation_arm, stitch_traces,
                            zone_traces_from_digests)
    from ..core import CellSpec
    from ..core.parallelfed import ZoneWorkloadSpec

    zones = [f"dc-{chr(ord('a') + i)}" for i in range(args.zones)]
    workload = ZoneWorkloadSpec(clients=2, shared_keys=16, private_keys=4,
                                seed=args.seed, export_traces=True)
    report = run_federation_arm(
        zones, cell_spec=CellSpec(num_shards=4), workload=workload,
        duration=args.duration, mode="sequential")
    zone_traces = zone_traces_from_digests(report.digests)
    if args.save:
        with open(args.save, "w") as fh:
            _json.dump({"zones": zone_traces}, fh)
        print(f"wrote raw per-zone traces to {args.save}")
    traces = _trace_filters(args, stitch_traces(zone_traces))
    _print_stitched(args, traces)
    cross = [t for t in traces if t.cross_zone]
    if args.assert_cross_zone and not cross:
        print("FAIL: expected at least one stitched cross-zone trace")
        return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from ..analysis import render_table
    from ..core import Cell, CellSpec, ReplicationMode
    from ..sim import RandomStream
    from ..workloads import Trace, TraceReplayer, synthesize_trace

    if args.federation_demo:
        return _trace_federation_demo(args)
    if args.stitch:
        return _trace_stitch(args)
    if args.flight:
        return _trace_flight(args)
    if args.input:
        with open(args.input) as fp:
            trace = Trace.load(fp)
    else:
        trace = synthesize_trace(RandomStream(args.seed, "cli-trace"),
                                 num_keys=args.keys, ops=args.ops,
                                 get_fraction=args.get_fraction)
    if args.output:
        with open(args.output, "w") as fp:
            trace.dump(fp)
        print(f"wrote {len(trace)} ops to {args.output}")
        return 0

    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=4,
                         transport="pony"))
    client = cell.connect_client()
    replayer = TraceReplayer(client, trace, time_scale=args.time_scale)
    report = cell.sim.run(until=cell.sim.process(replayer.replay()))
    print(render_table(
        "trace replay", ["metric", "value"],
        [["ops", len(trace)],
         ["GETs", report.gets], ["hit rate", f"{report.hit_rate:.3f}"],
         ["SETs", report.sets], ["erases", report.erases],
         ["errors", report.errors],
         ["GET p50 (us)",
          f"{report.get_latency.percentile(50) * 1e6:.1f}"
          if report.gets else "-"],
         ["replay duration (s)", f"{report.duration:.3f}"]]))
    return 0


# ``chaos --resize X`` runs the scenario-table row ``resize/X``.
_RESIZE = "resize/"


def _add_soak_args(p: argparse.ArgumentParser, duration: float,
                   settle: float) -> None:
    """Flags ``chaos`` and ``observe`` share (one soak command path)."""
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--duration", type=float, default=duration,
                   help="fault-injection window (simulated seconds)")
    p.add_argument("--settle", type=float, default=settle,
                   help="post-heal convergence window before verification")
    p.add_argument("--shards", type=int, default=3)
    p.add_argument("--transport", default="pony",
                   choices=["pony", "1rma", "rdma"])
    p.add_argument("--flight", action="store_true",
                   help="arm the cell's flight recorder; its event ring "
                        "lands in the postmortem bundle when an alert "
                        "fires or an invariant breaks")
    p.add_argument("--population", type=int, default=0,
                   help="superpose an aggregate population of N modeled "
                        "clients issuing zipf GETs over the chaos keys "
                        "(0 = off; see repro.workloads.population)")
    p.add_argument("--population-rate", type=float, default=40.0,
                   help="offered GETs/s per modeled client")
    p.add_argument("--population-sample-rate", type=float, default=1.0,
                   help="fraction of offered ops actually driven "
                        "(Poisson thinning; counts are scaled back up "
                        "in reporting)")


def _soak_verdict(report, assert_alert: str,
                  assert_no_alerts: bool) -> int:
    """Exit code of a soak: invariants first, then the alert assertions."""
    if not report.ok:
        print("FAIL: soak invariants violated")
        return 1
    fired = {a["objective"] for a in report.alerts if a["kind"] == "fire"}
    if assert_alert and assert_alert not in fired:
        print(f"FAIL: expected the {assert_alert!r} alert to fire "
              f"(fired: {sorted(fired) or 'none'})")
        return 1
    if assert_no_alerts and fired:
        print(f"FAIL: expected no alerts, but fired: {sorted(fired)}")
        return 1
    print("invariants hold: no bad hits, all keys recovered, "
          "replicas converged")
    return 0


def _soak_command(args: argparse.Namespace, assert_alert: str = "",
                  assert_no_alerts: bool = False, **scenario) -> int:
    """The one path behind ``chaos`` and ``observe``: run a soak, print
    its report, return the verdict. ``scenario`` is what the front-end
    chose: the table row and the SoakConfig fields only it exposes."""
    from ..analysis import render_soak_report
    from ..faults import SoakConfig, run_soak

    report = run_soak(SoakConfig(
        seed=args.seed, duration=args.duration, settle=args.settle,
        num_shards=args.shards, transport=args.transport,
        flight=args.flight, export_dir=args.export_dir or None,
        population=args.population,
        population_rate=args.population_rate,
        population_sample_rate=args.population_sample_rate, **scenario))
    print(render_soak_report(report))
    print()
    return _soak_verdict(report, assert_alert, assert_no_alerts)


def cmd_chaos(args: argparse.Namespace) -> int:
    return _soak_command(
        args, num_keys=args.keys, sor=args.sor,
        scenario=_RESIZE + args.resize if args.resize else None)


def cmd_observe(args: argparse.Namespace) -> int:
    from ..faults import SCENARIOS

    return _soak_command(
        args, args.assert_alert, args.assert_no_alerts,
        scenario=args.fault,
        plan=SCENARIOS[args.fault].plan(
            args.duration, args.shards, args.fault_at, args.fault_duration))


def cmd_perf(args: argparse.Namespace) -> int:
    from ..analysis import (render_multiget_table, run_multiget_benchmark,
                            write_bench_json)

    if args.mode == "profile":
        return cmd_perf_profile(args)
    if args.mode == "history":
        from ..analysis import perf_history
        history = perf_history(args.root)
        print(history["rendered"])
        if history["regressions"]:
            print(f"FAIL: {len(history['regressions'])} metric(s) outside "
                  f"their recorded bounds")
            return 1
        return 0
    result = run_multiget_benchmark(num_keys=args.keys,
                                    transport=args.transport,
                                    value_bytes=args.value_bytes,
                                    num_shards=args.shards, seed=args.seed)
    print(render_multiget_table(result))
    if args.output:
        write_bench_json(result, args.output)
        print(f"wrote {args.output}")
    ok = (result["engine_cpu_speedup"] >= 2.0 and
          result["latency_speedup"] >= 1.5)
    if not ok:
        print("FAIL: batching speedup below the 2x CPU / 1.5x latency "
              "floors")
    return 0 if ok else 1


def cmd_perf_profile(args: argparse.Namespace) -> int:
    # Sharded run: every worker profiles its own shard; the per-shard
    # cProfile dumps are aggregated into one top-N table.
    from ..analysis import profile_parallel_hotspots
    zones = [f"dc-{chr(ord('a') + i)}" for i in range(args.zones)]
    profile_parallel_hotspots(zones=zones, top=args.top, sort=args.sort,
                              duration=args.parallel_duration)
    return 0


def cmd_model_check(args: argparse.Namespace) -> int:
    from ..model import check

    result = check(max_sets=args.sets, max_erases=args.erases,
                   max_cas=args.cas, allow_crash=not args.no_crash)
    print(f"states explored: {result.states_explored}")
    print(f"transitions:     {result.transitions}")
    if result.ok:
        print("all invariants hold (I1 durability, I2 monotonicity, "
              "I3 no-resurrection, I4 quorum-exists, I5 no-lost-update)")
        return 0
    print(f"VIOLATION: {result.counterexample.detail}")
    print("trace:")
    for step in result.counterexample.trace:
        print(f"  {step}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools",
        description="CliqueMap reproduction: operator tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("drill", help="maintenance drill (Figs 13/14)")
    p.add_argument("kind", choices=["planned", "unplanned"])
    p.set_defaults(func=cmd_drill)

    p = sub.add_parser("metrics",
                       help="telemetry registry snapshot of a live cell")
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--transport", default="pony",
                   choices=["pony", "1rma", "rdma"])
    p.add_argument("--keys", type=int, default=60)
    p.add_argument("--ops", type=int, default=240)
    p.add_argument("--demo", action="store_true",
                   help="also render the span tree of the last operation")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("trace",
                       help="synthesize/replay op traces; stitch and "
                            "query distributed traces and flight "
                            "recorders (--stitch / --flight / "
                            "--federation-demo)")
    p.add_argument("--input", help="trace file to replay")
    p.add_argument("--output", help="write a synthesized trace here")
    p.add_argument("--ops", type=int, default=2000)
    p.add_argument("--keys", type=int, default=200)
    p.add_argument("--get-fraction", type=float, default=0.95)
    p.add_argument("--time-scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=1)
    # Distributed-trace tooling (repro.analysis.stitch). These modes
    # leave the legacy synthesize/replay path as the default.
    p.add_argument("--stitch", default="",
                   help="stitch per-zone span trees from a JSON file (a "
                        "'zones' map as written by --save, or a "
                        "postmortem bundle's traces.json) and "
                        "pretty-print them")
    p.add_argument("--flight", default="",
                   help="print a flight-recorder dump (a bundle dir or "
                        "its flight.json); combine with --kind/--origin/"
                        "--last")
    p.add_argument("--federation-demo", action="store_true",
                   help="run a small sharded federation with tracing on, "
                        "stitch the per-zone traces, and pretty-print "
                        "cross-zone op journeys")
    p.add_argument("--zones", type=int, default=2,
                   help="federation demo: number of zones")
    p.add_argument("--duration", type=float, default=0.08,
                   help="federation demo: simulated seconds of workload")
    p.add_argument("--save", default="",
                   help="federation demo: also write the raw per-zone "
                        "span trees to this JSON path (input for "
                        "--stitch)")
    p.add_argument("--assert-cross-zone", action="store_true",
                   help="federation demo: exit non-zero unless a "
                        "stitched trace crosses zones")
    p.add_argument("--zone", default="",
                   help="filter: only traces touching this zone")
    p.add_argument("--op", default="",
                   help="filter: only traces containing this span name "
                        "or op label (e.g. 'fed.get')")
    p.add_argument("--min-latency", type=float, default=None,
                   help="filter: only traces at least this long "
                        "(simulated seconds)")
    p.add_argument("--errors-only", action="store_true",
                   help="filter: only traces containing an error status")
    p.add_argument("--limit", type=int, default=3,
                   help="pretty-print at most this many traces")
    p.add_argument("--out", default="",
                   help="write the stitched traces as a Perfetto/Chrome "
                        "trace-event JSON (flow arrows across zones)")
    p.add_argument("--kind", default="",
                   help="flight query: only events of this kind")
    p.add_argument("--origin", default="",
                   help="flight query: only events whose origin contains "
                        "this substring")
    p.add_argument("--last", type=int, default=None,
                   help="flight query: only the last N matching events")
    p.set_defaults(func=cmd_trace)

    from ..faults import SCENARIOS
    from ..faults.soak import FAULT_AT, FAULT_DURATION

    p = sub.add_parser("chaos",
                       help="seeded fault-injection soak with invariant "
                            "checks")
    _add_soak_args(p, duration=2.0, settle=2.0)
    p.add_argument("--keys", type=int, default=12)
    p.add_argument("--sor", action="store_true",
                   help="attach a system of record, draw SoR brownouts, "
                        "and run the cold-keyspace/backfill herd")
    p.add_argument("--resize", default=None,
                   choices=[name[len(_RESIZE):] for name in SCENARIOS
                            if name.startswith(_RESIZE)],
                   help="run a resize chaos scenario (online grow+shrink "
                        "under traffic) instead of the seeded random plan")
    p.add_argument("--export-dir", default="",
                   help="write a postmortem bundle here if the soak "
                        "ends badly ('' = no bundle)")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("observe",
                       help="probed workload under the observability "
                            "plane: scraping, SLIs, burn-rate alerts, "
                            "timeseries/trace export")
    _add_soak_args(p, duration=1.6, settle=0.5)
    p.add_argument("--fault", default="none",
                   choices=[name for name in SCENARIOS
                            if not name.startswith(_RESIZE)],
                   help="inject one fault against the prober/cell "
                        "(sor-brownout attaches a system of record and "
                        "runs the thundering-herd/backfill scenario; "
                        "resize drives an online grow+shrink cycle)")
    p.add_argument("--fault-at", type=float, default=FAULT_AT,
                   help="fault injection time (simulated seconds)")
    p.add_argument("--fault-duration", type=float, default=FAULT_DURATION)
    p.add_argument("--out-dir", dest="export_dir", default=".",
                   help="where to write timeseries.json / trace.json "
                        "('' to skip writing)")
    p.add_argument("--assert-alert", default="",
                   help="exit non-zero unless this SLO objective fired "
                        "(e.g. 'availability')")
    p.add_argument("--assert-no-alerts", action="store_true",
                   help="exit non-zero if any alert fired")
    p.set_defaults(func=cmd_observe)

    p = sub.add_parser("perf",
                       help="perf tooling: multiget datapoint (default, "
                            "writes BENCH_multiget.json) or 'profile' to "
                            "run a sharded workload under cProfile")
    p.add_argument("mode", nargs="?", default="multiget",
                   choices=["multiget", "profile", "history"],
                   help="'multiget' (default) measures batched-vs-"
                        "singleton; 'profile' prints top-N cProfile hot "
                        "spots of a sharded federation; 'history' renders "
                        "every BENCH_*.json as one perf-trajectory table "
                        "and fails if any metric is under its floor")
    p.add_argument("--keys", type=int, default=32)
    p.add_argument("--value-bytes", type=int, default=128)
    p.add_argument("--shards", type=int, default=6)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--transport", default="pony",
                   choices=["pony", "1rma", "rdma"])
    p.add_argument("--output", default="BENCH_multiget.json",
                   help="perf-trajectory JSON path ('' to skip writing)")
    p.add_argument("--top", type=int, default=25,
                   help="profile mode: number of hot spots to print")
    p.add_argument("--sort", default="cumulative",
                   choices=["cumulative", "tottime", "ncalls"],
                   help="profile mode: pstats sort order")
    p.add_argument("--zones", type=int, default=4,
                   help="profile mode: number of zones (one worker "
                        "process each)")
    p.add_argument("--parallel-duration", type=float, default=0.2,
                   help="profile mode: simulated seconds of federated "
                        "workload to profile")
    p.add_argument("--root", default=".",
                   help="history mode: directory holding the "
                        "BENCH_*.json files")
    p.set_defaults(func=cmd_perf)

    p = sub.add_parser("model-check",
                       help="explicit-state check of R=3.2 (§5.1)")
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--erases", type=int, default=1)
    p.add_argument("--cas", type=int, default=0)
    p.add_argument("--no-crash", action="store_true")
    p.set_defaults(func=cmd_model_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
