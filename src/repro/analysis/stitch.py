"""Post-run trace stitcher: per-zone span trees → cross-zone traces.

A sharded federation (ARCHITECTURE §13) runs one private simulator and
tracer per zone, so a cross-zone GET leaves *two* span trees behind: the
origin zone's ``fed.get`` tree (whose ``wan.call`` span parks on the WAN
round trip) and the destination zone's ``wan.serve`` tree (whose root
carries a ``remote_parent`` reference — ``(trace_id, origin_zone,
span_id)`` — naming exactly that ``wan.call`` span). Both trees share
one deterministic ``trace_id``, carried over the WAN inside
:class:`~repro.sim.ShardMessage`.

This module reassembles them after the run: group per-zone span dicts
by ``trace_id``, hang every serve tree under the origin span its
``remote_parent`` names, and export the result as one Perfetto timeline
— one "process" per zone, with flow arrows (``"s"``/``"f"`` trace
events) drawn across the WAN joints. Stitching is pure dict surgery
over :meth:`~repro.telemetry.Span.to_dict` output, so it works on live
runs, worker-pickled digests, and postmortem-bundle JSON alike.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..telemetry.trace import ERROR_STATUSES

# Simulated seconds -> trace-event microseconds (matches telemetry.export).
_US = 1e6


def walk_span_dict(span: Dict[str, Any],
                   depth: int = 0) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Depth-first (depth, span-dict) traversal including ``span``."""
    yield depth, span
    for child in span.get("children", ()):
        yield from walk_span_dict(child, depth + 1)


class StitchedTrace:
    """One cross-zone trace: origin root trees with serve trees attached.

    ``roots`` are span dicts (the origin zone's standalone roots for
    this trace id); serve roots from other zones have been spliced into
    their parents' ``children``. Every span dict carries a ``zone`` key
    after stitching. ``links`` lists the WAN joints as
    ``(parent_span, serve_root)`` dict pairs for flow-arrow export.
    """

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.roots: List[Dict[str, Any]] = []
        self.links: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        self.orphans: List[Dict[str, Any]] = []

    def walk(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        for root in self.roots:
            yield from walk_span_dict(root)
        for orphan in self.orphans:
            yield from walk_span_dict(orphan)

    @property
    def zones(self) -> List[str]:
        seen: List[str] = []
        for _d, span in self.walk():
            zone = span.get("zone")
            if zone and zone not in seen:
                seen.append(zone)
        return seen

    @property
    def cross_zone(self) -> bool:
        return len(self.zones) > 1

    @property
    def latency(self) -> float:
        """Wall extent of the whole trace in simulated seconds."""
        starts = [s["start"] for _d, s in self.walk()
                  if s.get("start") is not None]
        ends = [s["end"] for _d, s in self.walk()
                if s.get("end") is not None]
        if not starts or not ends:
            return 0.0
        return max(ends) - min(starts)

    @property
    def has_error(self) -> bool:
        for _d, span in self.walk():
            labels = span.get("labels", {})
            if labels.get("error") or \
                    str(labels.get("status")) in ERROR_STATUSES:
                return True
        return False

    def render(self) -> str:
        """Indented plain-text tree, one line per span, zone-tagged."""
        lines = [f"trace {self.trace_id}  zones={','.join(self.zones)}  "
                 f"latency={self.latency * 1e6:.2f}us"
                 + ("  ERROR" if self.has_error else "")]
        for depth, span in self.walk():
            labels = "".join(
                f" {k}={v}" for k, v in sorted(
                    span.get("labels", {}).items()))
            duration = span.get("duration") or 0.0
            lines.append(
                f"  {'  ' * depth}[{span.get('zone', '?'):>6}] "
                f"{span['name']:<{max(1, 22 - 2 * depth)}} "
                f"{duration * 1e6:9.2f}us{labels}")
        return "\n".join(lines)


def zone_traces_from_digests(
        digests: List[Dict[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    """Pull the per-zone ``traces`` exports out of sharded run digests
    (:class:`~repro.sim.ShardRunReport` ``.digests`` entries produced
    with ``ZoneWorkloadSpec.export_traces=True``)."""
    return {d["zone"]: d.get("traces", []) for d in digests}


def stitch_traces(
        zone_traces: Dict[str, List[Dict[str, Any]]]) -> List[StitchedTrace]:
    """Merge per-zone root span dicts into cross-zone traces.

    ``zone_traces`` maps zone name → that zone's retained root span
    dicts. Roots carrying a ``remote_parent`` are spliced under the
    span that reference names; the rest become trace roots. A serve
    root whose named parent was not retained in the origin zone (tail
    sampling, ring eviction) is kept as an ``orphan`` of its trace
    rather than dropped — postmortems prefer a detached tree to a
    silent hole.
    """
    # Tag every span with its zone; index spans by (zone, span_id).
    by_trace: Dict[str, List[Dict[str, Any]]] = {}
    index: Dict[Tuple[str, int], Dict[str, Any]] = {}
    for zone, roots in zone_traces.items():
        for root in roots:
            for _depth, span in walk_span_dict(root):
                span["zone"] = zone
                if span.get("span_id") is not None:
                    index[(zone, span["span_id"])] = span
            by_trace.setdefault(root.get("trace_id") or "untraced",
                                []).append(root)

    stitched: List[StitchedTrace] = []
    for trace_id in sorted(by_trace):
        trace = StitchedTrace(trace_id)
        for root in by_trace[trace_id]:
            ref = root.get("remote_parent")
            if not ref:
                trace.roots.append(root)
                continue
            _tid, origin_zone, parent_span_id = ref
            parent = index.get((origin_zone, parent_span_id))
            if parent is None:
                trace.orphans.append(root)
                continue
            parent.setdefault("children", []).append(root)
            trace.links.append((parent, root))
        if trace.roots or trace.orphans:
            stitched.append(trace)
    return stitched


def filter_traces(traces: List[StitchedTrace],
                  zone: Optional[str] = None,
                  op: Optional[str] = None,
                  min_latency: Optional[float] = None,
                  errors_only: bool = False) -> List[StitchedTrace]:
    """The CLI's trace filters (``--zone/--op/--min-latency/
    --errors-only``), combinable; each narrows the set."""
    out = []
    for trace in traces:
        if zone is not None and zone not in trace.zones:
            continue
        if op is not None and not any(
                span["name"] == op or
                str(span.get("labels", {}).get("op")) == op
                for _d, span in trace.walk()):
            continue
        if min_latency is not None and trace.latency < min_latency:
            continue
        if errors_only and not trace.has_error:
            continue
        out.append(trace)
    return out


# ---------------------------------------------------------------------------
# Perfetto export: one timeline, one process per zone, flow arrows at
# the WAN joints.
# ---------------------------------------------------------------------------


def stitched_chrome_trace(traces: List[StitchedTrace]) -> Dict[str, Any]:
    """Trace-event JSON for stitched cross-zone traces.

    Each zone becomes a Perfetto "process" (``pid``), each stitched
    trace one "thread" (``tid``) within the zones it touches, and every
    WAN joint a ``"s"`` → ``"f"`` flow pair from the origin span's
    start to its serve root's start — the arrow Perfetto draws across
    the process boundary.
    """
    zones = sorted({z for trace in traces for z in trace.zones})
    pids = {zone: pid for pid, zone in enumerate(zones, start=1)}
    events: List[Dict[str, Any]] = []
    for zone, pid in pids.items():
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": f"zone {zone}"}})
    flow_id = 0
    for tid, trace in enumerate(traces, start=1):
        for zone in trace.zones:
            events.append({
                "name": "thread_name", "ph": "M", "pid": pids[zone],
                "tid": tid,
                "args": {"name": f"trace {trace.trace_id}"}})
        for depth, span in trace.walk():
            end = span.get("end")
            start = span.get("start", 0.0)
            if end is None:
                end = start
            events.append({
                "name": span["name"],
                "ph": "X",
                "ts": start * _US,
                "dur": max(0.0, (end - start) * _US),
                "pid": pids.get(span.get("zone"), 0),
                "tid": tid,
                "args": {str(k): str(v) for k, v in sorted(
                    span.get("labels", {}).items())},
            })
        for parent, serve_root in trace.links:
            flow_id += 1
            events.append({
                "name": "wan", "ph": "s", "id": flow_id,
                "pid": pids.get(parent.get("zone"), 0), "tid": tid,
                "ts": parent.get("start", 0.0) * _US})
            events.append({
                "name": "wan", "ph": "f", "bp": "e", "id": flow_id,
                "pid": pids.get(serve_root.get("zone"), 0), "tid": tid,
                "ts": serve_root.get("start", 0.0) * _US})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_stitched_chrome_trace(path: str,
                                traces: List[StitchedTrace]) -> int:
    doc = stitched_chrome_trace(traces)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])


__all__ = ["StitchedTrace", "walk_span_dict", "zone_traces_from_digests",
           "stitch_traces", "filter_traces", "stitched_chrome_trace",
           "write_stitched_chrome_trace"]
