"""End-to-end distributed tracing (PR 10): a cross-zone GET through the
sharded federation stitches into one trace — client, gateway, remote
cell, and reply on one span tree with correct parent/child links —
exporters stay valid on multi-zone runs, and a chaos soak that trips an
invariant or an SLO alert leaves a postmortem bundle behind."""

import json

import pytest

from repro.analysis import (filter_traces, run_federation_arm,
                            stitch_traces, write_stitched_chrome_trace,
                            zone_traces_from_digests)
from repro.core import Cell, CellSpec, GetStrategy, ZoneWorkloadSpec
from repro.faults import SoakConfig, run_soak
from repro.observe.postmortem import find_bundles
from repro.telemetry.export import prometheus_text

ZONES = ["dc-a", "dc-b"]


@pytest.fixture(scope="module")
def stitched():
    """One sharded 2-zone run with trace export, stitched once."""
    workload = ZoneWorkloadSpec(clients=2, shared_keys=16, private_keys=4,
                                remote_every=4, seed=5, export_traces=True)
    report = run_federation_arm(ZONES, cell_spec=CellSpec(num_shards=3),
                                workload=workload, duration=0.08,
                                mode="sequential")
    zone_traces = zone_traces_from_digests(report.digests)
    assert sorted(zone_traces) == ZONES
    assert all(zone_traces[z] for z in ZONES)
    return stitch_traces(zone_traces)


def test_cross_zone_get_stitches_into_one_trace(stitched):
    """The PR's acceptance criterion: a remote GET is one trace —
    fed.get (origin client) → wan.call (WAN round trip incl. reply) →
    wan.serve (remote zone) → get (remote gateway) — with every link a
    real parent/child edge after stitching."""
    remote_gets = [t for t in stitched
                   if t.cross_zone and t.roots
                   and t.roots[0]["name"] == "fed.get"]
    assert remote_gets, "no cross-zone GET was stitched"
    trace = remote_gets[0]
    root = trace.roots[0]

    # Exactly one trace id across both zones' fragments.
    ids = {span["trace_id"] for _d, span in trace.walk()}
    assert ids == {trace.trace_id}
    assert len(trace.zones) == 2 and not trace.orphans

    def child(span, name):
        matches = [c for c in span.get("children", [])
                   if c["name"] == name]
        assert matches, (f"{span['name']} has no {name} child: "
                         f"{[c['name'] for c in span.get('children', [])]}")
        return matches[0]

    # client → local cell: the local leg (a MISS) hangs off the fed root.
    local_leg = child(root, "get")
    assert local_leg["zone"] == root["zone"]
    # → WAN: the call span lives in the origin zone, names the peer.
    wan_call = child(root, "wan.call")
    assert wan_call["zone"] == root["zone"]
    assert wan_call["labels"]["dst"] != root["zone"]
    # → remote cell: the spliced serve root carries the other zone and
    # points back at the wan.call span it was grafted under.
    serve = child(wan_call, "wan.serve")
    assert serve["zone"] == wan_call["labels"]["dst"]
    assert serve["remote_parent"][2] == wan_call["span_id"]
    assert (wan_call, serve) in trace.links
    # → remote gateway op, served inside the remote cell.
    remote_get = child(serve, "get")
    assert remote_get["zone"] == serve["zone"]

    # Reply included: the WAN call's extent covers the whole remote
    # serve, and every spliced interval nests inside its parent.
    assert wan_call["start"] <= serve["start"]
    assert serve["end"] <= wan_call["end"]
    assert root["start"] <= wan_call["start"] <= wan_call["end"] \
        <= root["end"]
    assert serve["start"] <= remote_get["start"] \
        <= remote_get["end"] <= serve["end"]


def test_stitched_phase_sums_match_leg_durations(stitched):
    """Stitching is pure dict surgery: the local leg's contiguous
    index/data/validate phases still sum to the leg's duration, even on
    spans that crossed the stitcher."""
    checked = 0
    for trace in stitched:
        for _depth, span in trace.walk():
            if span["name"] != "get":
                continue
            phases = sorted((c for c in span.get("children", [])
                             if c["name"] in ("index", "data",
                                              "validate")),
                            key=lambda c: c["start"])
            if not phases:
                continue
            # The PR 1 sum-invariant survives stitching: phases tile
            # the op interval edge to edge.
            assert phases[0]["start"] == span["start"]
            assert phases[-1]["end"] == span["end"]
            for left, right in zip(phases, phases[1:]):
                assert left["end"] == pytest.approx(right["start"],
                                                    rel=1e-12)
            total = sum(c["duration"] for c in phases)
            assert total == pytest.approx(span["duration"], rel=1e-9)
            checked += 1
    assert checked > 0, "no phased GET found in stitched traces"


def test_stitched_filters_and_chrome_export(stitched, tmp_path):
    cross = [t for t in stitched if t.cross_zone]
    assert filter_traces(stitched, zone="dc-b")
    assert filter_traces(stitched, op="fed.get")
    assert filter_traces(stitched, min_latency=0.0) == stitched

    path = tmp_path / "stitched.json"
    count = write_stitched_chrome_trace(str(path), stitched)
    assert count > 0
    doc = json.loads(path.read_text())       # valid JSON for Perfetto
    events = doc["traceEvents"]
    pids = {e["pid"] for e in events}
    assert len({e["args"]["name"] for e in events
                if e["ph"] == "M" and e["name"] == "process_name"}) == 2
    assert pids >= {1, 2}                    # one lane per zone
    for e in events:
        if e["ph"] == "X":
            assert e["ts"] >= 0 and e["dur"] >= 0
    starts = sorted(e["id"] for e in events if e["ph"] == "s")
    finishes = sorted(e["id"] for e in events if e["ph"] == "f")
    assert starts == finishes and len(starts) == len(
        [link for t in cross for link in t.links])


def test_prometheus_text_carries_trace_exemplar():
    """A traced cell exposes OpenMetrics exemplars linking the latency
    histogram to a retained trace id, and the exposition stays
    machine-parseable."""
    cell = Cell(CellSpec(num_shards=3, flight_recorder=True))
    client = cell.connect_client(strategy=GetStrategy.TWO_R)

    def app():
        yield from client.set(b"k", b"v" * 32)
        for _ in range(5):
            yield from client.get(b"k")

    cell.sim.run(until=cell.sim.process(app()))
    text = prometheus_text(cell.metrics)
    exemplar_lines = [ln for ln in text.splitlines() if " # {" in ln]
    assert exemplar_lines, "no exemplar in exposition"
    line = exemplar_lines[0]
    _metric, suffix = line.split(" # ", 1)
    labels, value, ts = suffix.rsplit(" ", 2)
    trace_id = labels.split('"')[1]
    assert len(trace_id) == 16 and int(trace_id, 16)
    assert float(value) >= 0 and float(ts) >= 0
    # The exemplar points at a trace the tracer actually retained.
    assert trace_id in {s.trace_id for s in cell.tracer.finished}
    # Every non-comment line is "name{labels} value [# exemplar]".
    for ln in text.splitlines():
        if not ln or ln.startswith("#"):
            continue
        body = ln.split(" # ", 1)[0]
        assert float(body.rsplit(" ", 1)[1]) is not None
    cell.close()


SOAK_KWARGS = dict(seed=11, duration=1.6, settle=0.5, num_shards=3,
                   observe=True, flight=True)


def test_alerting_soak_emits_postmortem_bundle(tmp_path):
    report = run_soak(SoakConfig(scenario="partition",
                                 export_dir=str(tmp_path), **SOAK_KWARGS))
    assert report.ok                     # quorum masks the cut
    assert report.bundle and report.bundle in report.exports
    assert find_bundles(str(tmp_path)) == [report.bundle]

    manifest = json.loads(
        (tmp_path / "postmortem-slo-alert" / "manifest.json").read_text())
    assert manifest["reason"] == "slo-alert"
    assert manifest["detail"]["alerts_fired"] >= 1
    # The faults that caused it, victims named: the bundle must say
    # which replica was cut off from whom without a rerun.
    cuts = [line for line in manifest["detail"]["injected"]
            if " partition " in line]
    assert cuts and all("shard=" in line and "client=" in line
                        for line in cuts), manifest["detail"]["injected"]
    assert {"flight.json", "flight.txt", "timeseries.json", "alerts.json",
            "manifest.json"} <= set(manifest["contents"])

    flight = json.loads(
        (tmp_path / "postmortem-slo-alert" / "flight.json").read_text())
    events = flight["events"]
    kinds = {e["kind"] for e in events}
    assert {"fault", "alert"} <= kinds
    # Causality is reconstructible from the ring: the injected
    # partition precedes the alert fire that it provoked.
    first_fault = next(e for e in events if e["kind"] == "fault")
    alert_fire = next(e for e in events if e["kind"] == "alert"
                      and e["fields"]["event"] == "fire")
    assert first_fault["seq"] < alert_fire["seq"]
    assert first_fault["t"] <= alert_fire["t"]
    assert first_fault["fields"]["fault"] == "partition"

    alerts = json.loads(
        (tmp_path / "postmortem-slo-alert" / "alerts.json").read_text())
    assert any(a["kind"] == "fire" for a in alerts["events"])


def test_healthy_soak_writes_no_bundle(tmp_path):
    report = run_soak(SoakConfig(scenario="none", export_dir=str(tmp_path),
                                 **SOAK_KWARGS))
    assert report.ok and report.bundle is None
    assert find_bundles(str(tmp_path)) == []
