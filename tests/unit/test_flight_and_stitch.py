"""Unit tests for PR 10's observability substrate: reparent-on-close
tracer semantics, deterministic distributed ids, tail sampling, the
flight recorder, histogram exemplars, the cross-zone trace stitcher,
the bench-trajectory tracker, and postmortem bundles."""

import json
import math

# NB: pytest collects ``bench_*`` callables (pyproject python_functions),
# so the bench-history helper is imported under an underscored alias.
from repro.analysis import bench_rows as _bench_rows
from repro.analysis import (filter_traces, load_bench_files, perf_history,
                            render_history, stitch_traces,
                            stitched_chrome_trace,
                            write_stitched_chrome_trace)
from repro.observe.postmortem import find_bundles, write_postmortem_bundle
from repro.telemetry import (NULL_FLIGHT, FlightRecorder, MetricsRegistry,
                             Tracer)
from repro.telemetry.export import prometheus_text
from repro.telemetry.trace import NULL_SPAN


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- reparent-on-close (the PR's tracer bug fix) ------------------------------

def test_late_finishing_child_is_hoisted_not_orphaned():
    """Regression: a phase closing while a child leg is still in flight
    used to freeze the child inside the closed phase (or drop it from
    accounting). Now the open child is hoisted to the nearest open
    ancestor and labelled with its provenance."""
    clock = FakeClock()
    tracer = Tracer(clock)
    root = tracer.start("get")
    phase = root.child("index")
    late = phase.child("transport.read", task="backend-2")
    clock.now = 1.0
    phase.finish()                       # quorum met; leg still in flight
    assert late.parent is root
    assert late in root.children
    assert late not in phase.children
    assert late.labels["hoisted_from"] == "index"
    clock.now = 2.0
    late.finish()
    root.finish()
    # The retry interleaving from the bug report: nothing lost, the
    # whole tree is finished, the leg's true extent is preserved.
    assert late.end == 2.0
    assert all(s.finished for _d, s in root.walk())


def test_child_of_closed_span_attaches_to_open_ancestor():
    clock = FakeClock()
    tracer = Tracer(clock)
    root = tracer.start("get")
    phase = root.child("index")
    phase.finish()
    late = phase.child("retry.read")     # a retry races the phase close
    assert late.parent is root
    assert late.labels["late_child_of"] == "index"


def test_closing_root_clips_open_descendants():
    clock = FakeClock()
    tracer = Tracer(clock)
    root = tracer.start("get")
    leg = root.child("index").child("transport.read")
    clock.now = 3.0
    root.finish()
    assert leg.finished and leg.end == 3.0
    assert leg.labels["clipped_by"] in ("index", "get")
    assert all(s.finished for _d, s in root.walk())


# -- deterministic distributed ids --------------------------------------------

def test_trace_ids_are_deterministic_per_seed_and_namespace():
    clock = FakeClock()
    a1 = Tracer(clock, seed=7, namespace="cell/dc-a")
    a2 = Tracer(clock, seed=7, namespace="cell/dc-a")
    b = Tracer(clock, seed=7, namespace="cell/dc-b")
    ids_a1 = [a1.start("op").trace_id for _ in range(5)]
    ids_a2 = [a2.start("op").trace_id for _ in range(5)]
    ids_b = [b.start("op").trace_id for _ in range(5)]
    assert ids_a1 == ids_a2                      # reproducible
    assert set(ids_a1).isdisjoint(ids_b)         # zone streams disjoint
    assert all(len(t) == 16 for t in ids_a1)     # 64-bit hex


def test_remote_parent_joins_the_originating_trace():
    clock = FakeClock()
    origin = Tracer(clock, seed=1, namespace="dc-a")
    serve = Tracer(clock, seed=1, namespace="dc-b")
    call = origin.start("fed.get").child("wan.call")
    ref = call.ref("dc-a")
    root = serve.start("wan.serve", remote_parent=ref)
    assert root.trace_id == call.trace_id
    assert root.remote_parent == (call.trace_id, "dc-a", call.span_id)
    doc = root.to_dict()
    assert doc["remote_parent"] == [call.trace_id, "dc-a", call.span_id]


def test_tail_sampling_keeps_errors_slow_and_one_in_n():
    clock = FakeClock()
    tracer = Tracer(clock, max_retained=1000, tail_sample_every=10,
                    tail_slow_threshold=1.0)
    for i in range(100):
        span = tracer.start("get")
        if i == 3:
            span.annotate(status="timeout")
        if i == 7:
            clock.now += 2.0             # a slow op
        span.finish()
        tracer.record(span)
    statuses = [s.labels.get("status") for s in tracer.finished]
    assert "timeout" in statuses                         # error kept
    assert any(s.duration >= 1.0 for s in tracer.finished)   # slow kept
    kept = len(tracer.finished)
    assert kept + tracer.sampled_out == 100
    assert 10 <= kept <= 20              # ~1-in-10 plus the specials


# -- flight recorder ----------------------------------------------------------

def test_flight_recorder_ring_bound_and_queries():
    clock = FakeClock()
    flight = FlightRecorder(clock, capacity=8)
    for i in range(20):
        clock.now = float(i)
        flight.record("op" if i % 2 else "retry", origin=f"client-{i % 3}",
                      attempt=i)
    assert flight.recorded == 20
    assert len(flight) == 8              # ring dropped the oldest
    assert [e.fields["attempt"] for e in flight.events()] == list(range(12,
                                                                        20))
    assert all(e.kind == "retry" for e in flight.events(kind="retry"))
    assert all(e.origin == "client-1" for e in
               flight.events(origin="client-1"))
    assert len(flight.events(last=3)) == 3
    assert all(e.t >= 15.0 for e in flight.events(since=15.0))
    # seq is monotone across ring eviction.
    seqs = [e.seq for e in flight.events()]
    assert seqs == sorted(seqs)
    doc = flight.to_dicts(last=2)
    assert json.dumps(doc) and doc[-1]["fields"]["attempt"] == 19


def test_null_flight_is_falsy_noop():
    assert not NULL_FLIGHT
    NULL_FLIGHT.record("op", origin="x", y=1)
    assert len(NULL_FLIGHT) == 0 and NULL_FLIGHT.events() == []
    assert NULL_FLIGHT.to_dicts() == []
    assert not NULL_SPAN                 # same discipline as the tracer


# -- histogram exemplars ------------------------------------------------------

def test_exemplars_are_capped_and_never_reach_snapshot():
    reg = MetricsRegistry()
    hist = reg.histogram("cliquemap_get_latency_seconds").labels(op="get")
    for i in range(10):
        hist.observe(i * 1e-3)
        hist.exemplar(i * 1e-3, f"{i:016x}", float(i))
    assert len(hist.exemplars) <= 4
    assert hist.exemplars[-1][1] == f"{9:016x}"
    # The digest-critical invariant: snapshots are identical with and
    # without exemplars attached (three-arm determinism rests on this).
    bare = reg.histogram("bare").labels(op="get")
    for i in range(10):
        bare.observe(i * 1e-3)
    snap = reg.snapshot()
    assert "exemplar" not in json.dumps(snap)
    ours = snap["cliquemap_get_latency_seconds"]["series"][0]
    theirs = snap["bare"]["series"][0]
    assert ours["count"] == theirs["count"] == 10
    assert ours["sum"] == theirs["sum"]


def test_prometheus_text_emits_openmetrics_exemplar():
    reg = MetricsRegistry()
    hist = reg.histogram("cliquemap_get_latency_seconds").labels(op="get")
    hist.observe(2e-3)
    hist.exemplar(2e-3, "deadbeefdeadbeef", 0.5)
    text = prometheus_text(reg)
    count_lines = [ln for ln in text.splitlines() if "_count" in ln
                   and "#" in ln.split(" ", 1)[1]]
    assert count_lines, text
    line = count_lines[0]
    # OpenMetrics exemplar syntax: <line> # {labels} value timestamp
    metric_part, exemplar_part = line.split(" # ", 1)
    assert float(metric_part.split()[-1]) == 1.0
    assert exemplar_part.startswith('{trace_id="deadbeefdeadbeef"}')
    _labels, value, ts = exemplar_part.rsplit(" ", 2)
    assert math.isclose(float(value), 2e-3)
    assert math.isclose(float(ts), 0.5)


# -- stitcher -----------------------------------------------------------------

def _span(name, zone=None, trace_id="t1", span_id=1, start=0.0, end=1.0,
          labels=None, children=None, remote_parent=None):
    doc = {"name": name, "start": start, "end": end,
           "duration": end - start, "labels": labels or {},
           "trace_id": trace_id, "span_id": span_id,
           "parent_span_id": None, "children": children or []}
    if remote_parent is not None:
        doc["remote_parent"] = remote_parent
    return doc


def test_stitch_attaches_serve_root_under_origin_span():
    wan_call = _span("wan.call", span_id=2, start=0.2, end=0.9)
    origin_root = _span("fed.get", span_id=1, start=0.0, end=1.0,
                        children=[wan_call])
    serve_root = _span("wan.serve", span_id=1, start=0.4, end=0.7,
                       remote_parent=["t1", "dc-a", 2])
    traces = stitch_traces({"dc-a": [origin_root], "dc-b": [serve_root]})
    assert len(traces) == 1
    trace = traces[0]
    assert trace.cross_zone and trace.zones == ["dc-a", "dc-b"]
    assert not trace.orphans
    assert wan_call["children"] == [serve_root]
    assert serve_root["zone"] == "dc-b"
    assert trace.links == [(wan_call, serve_root)]


def test_stitch_keeps_unmatched_serve_roots_as_orphans():
    serve_root = _span("wan.serve", remote_parent=["t1", "dc-a", 99])
    traces = stitch_traces({"dc-b": [serve_root]})
    assert len(traces) == 1
    assert traces[0].orphans == [serve_root] and not traces[0].roots


def test_filter_traces_by_zone_op_latency_errors():
    fast = stitch_traces({"dc-a": [_span("fed.get", trace_id="a",
                                         end=0.001)]})
    slow = stitch_traces({"dc-b": [_span(
        "fed.set", trace_id="b", end=2.0,
        labels={"status": "timeout"})]})
    traces = fast + slow
    assert filter_traces(traces, zone="dc-b") == slow
    assert filter_traces(traces, op="fed.get") == fast
    assert filter_traces(traces, min_latency=1.0) == slow
    assert filter_traces(traces, errors_only=True) == slow
    assert filter_traces(traces, zone="dc-b", op="fed.get") == []


def test_stitched_chrome_trace_has_flow_arrows_and_valid_json(tmp_path):
    wan_call = _span("wan.call", span_id=2, start=0.2, end=0.9)
    origin_root = _span("fed.get", span_id=1, end=1.0,
                        children=[wan_call])
    serve_root = _span("wan.serve", span_id=1, start=0.4, end=0.7,
                       remote_parent=["t1", "dc-a", 2])
    traces = stitch_traces({"dc-a": [origin_root], "dc-b": [serve_root]})
    path = tmp_path / "stitched.json"
    write_stitched_chrome_trace(str(path), traces)
    doc = json.loads(path.read_text())   # valid JSON round-trip
    events = doc["traceEvents"]
    pids = {e["args"]["name"]: e["pid"] for e in events
            if e["ph"] == "M" and e["name"] == "process_name"}
    assert pids == {"zone dc-a": 1, "zone dc-b": 2}
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert len(starts) == len(finishes) == 1
    assert starts[0]["id"] == finishes[0]["id"]
    assert starts[0]["pid"] == 1 and finishes[0]["pid"] == 2
    assert finishes[0]["bp"] == "e"
    xs = {e["name"] for e in events if e["ph"] == "X"}
    assert {"fed.get", "wan.call", "wan.serve"} <= xs


# -- bench-trajectory tracker -------------------------------------------------

def test_bench_history_flags_metrics_under_their_floors(tmp_path):
    (tmp_path / "BENCH_kernel.json").write_text(json.dumps({
        "benchmark": "kernel", "floor_events_per_sec": 100.0,
        "new": {"events_per_sec": 250.0},
        "legacy": {"events_per_sec": 125.0}}))
    (tmp_path / "BENCH_readthrough.json").write_text(json.dumps({
        "benchmark": "readthrough_herd", "fetch_reduction": 5.0,
        "fetch_reduction_floor": 10.0,
        "coalesced": {"coalescing_ratio": 0.9}}))
    (tmp_path / "BENCH_garbage.json").write_text("{not json")
    rows = _bench_rows(load_bench_files(str(tmp_path)))
    by_key = {(r["benchmark"], r["metric"]): r for r in rows}
    kernel = by_key[("kernel", "events_per_sec")]
    assert kernel["ok"] and math.isclose(kernel["margin"], 2.5)
    herd = by_key[("readthrough_herd", "fetch_reduction")]
    assert not herd["ok"] and math.isclose(herd["margin"], 0.5)
    rendered = render_history(rows)
    assert "UNDER FLOOR" in rendered
    history = perf_history(str(tmp_path))
    assert len(history["regressions"]) == 1


def test_bench_history_flags_metrics_over_their_ceilings(tmp_path):
    """A ``ceiling_`` bound is lower-is-better: at or under it is ok."""
    def write(per_host):
        (tmp_path / "BENCH_scale.json").write_text(json.dumps({
            "benchmark": "scale", "ops_per_wall_sec": 3000.0,
            "rss_mb_per_host": per_host, "ceiling_rss_mb_per_host": 0.5}))
        (tmp_path / "BENCH_new.json").write_text(json.dumps({
            "benchmark": "new", "seconds": 4.0 * per_host,
            "ceiling_seconds": 1.0}))
        history = perf_history(str(tmp_path))
        return history, {(r["benchmark"], r["metric"]): r
                         for r in history["rows"]}

    history, rows = write(0.25)
    assert history["regressions"] == []
    row = rows[("scale", "rss_mb_per_host")]
    assert row["ceiling"] and row["ok"] and math.isclose(row["margin"], 0.5)
    assert not rows[("scale", "ops_per_wall_sec")]["ceiling"]
    assert "<= 0.500" in history["rendered"]

    history, rows = write(0.75)
    assert [(r["benchmark"], r["metric"]) for r in history["regressions"]] \
        == [("new", "seconds"), ("scale", "rss_mb_per_host")]
    assert "OVER CEILING" in history["rendered"]
    assert "UNDER FLOOR" not in history["rendered"]


def test_bench_history_empty_dir(tmp_path):
    history = perf_history(str(tmp_path))
    assert history["rows"] == [] and history["regressions"] == []
    assert "no BENCH_" in history["rendered"]


# -- postmortem bundles -------------------------------------------------------

def test_write_postmortem_bundle_shape(tmp_path):
    clock = FakeClock()
    flight = FlightRecorder(clock, capacity=16)
    flight.record("fault", origin="fault-injector", fault="partition")
    flight.record("alert", origin="slo/cell", event="fire")
    tracer = Tracer(clock, seed=3, namespace="pm")
    slow = tracer.start("get")
    clock.now = 1.0
    slow.annotate(status="timeout").finish()
    tracer.record(slow)
    bundle = write_postmortem_bundle(str(tmp_path), "SLO alert!",
                                     flight=flight, tracer=tracer,
                                     detail={"alerts_fired": 1})
    assert bundle.endswith("postmortem-slo-alert")
    assert find_bundles(str(tmp_path)) == [bundle]
    manifest = json.loads((tmp_path / "postmortem-slo-alert" /
                           "manifest.json").read_text())
    assert manifest["reason"] == "SLO alert!"
    assert manifest["detail"] == {"alerts_fired": 1}
    assert set(manifest["contents"]) == {"manifest.json", "flight.json",
                                         "flight.txt", "traces.json"}
    fl = json.loads((tmp_path / "postmortem-slo-alert" /
                     "flight.json").read_text())
    assert [e["kind"] for e in fl["events"]] == ["fault", "alert"]
    tr = json.loads((tmp_path / "postmortem-slo-alert" /
                     "traces.json").read_text())
    assert tr["traces"][0]["labels"]["status"] == "timeout"


def test_find_bundles_ignores_unrelated_dirs(tmp_path):
    (tmp_path / "postmortem-bogus").mkdir()      # no manifest inside
    (tmp_path / "other").mkdir()
    assert find_bundles(str(tmp_path)) == []
    assert find_bundles(str(tmp_path / "missing")) == []


def test_chrome_trace_doc_valid_json():
    doc = stitched_chrome_trace([])
    assert json.loads(json.dumps(doc)) == {"traceEvents": [],
                                           "displayTimeUnit": "ms"}
