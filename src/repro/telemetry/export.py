"""Exporters: Chrome-trace JSON for span trees, Prometheus text for
registry snapshots.

Two interchange formats so the simulated telemetry can be inspected with
the same tooling production systems use:

* :func:`chrome_trace` renders :class:`~repro.telemetry.trace.Span`
  trees as ``chrome://tracing`` / Perfetto "trace event" JSON (complete
  ``"X"`` events, microsecond timestamps). Each root span becomes one
  "thread" so concurrent operations lay out side by side on the
  timeline.
* :func:`prometheus_text` renders a :class:`MetricsRegistry` in the
  Prometheus text exposition format (``# HELP`` / ``# TYPE`` +
  one sample line per series; histograms as summary-style quantiles
  with ``_count`` / ``_sum``). Histogram series carrying trace
  exemplars get an OpenMetrics-style exemplar suffix on their
  ``_count`` line (``... # {trace_id="..."} value timestamp``), so a
  tail-latency sample links back to the full span tree that produced
  it.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Optional

from .metrics import MetricsRegistry
from .trace import Span

# Simulated seconds -> trace-event microseconds.
_US = 1e6


def span_event(name: str, start: float, end: float, pid: int, tid: int,
               labels: Dict[str, Any]) -> Dict[str, Any]:
    """One span as a trace-event ``"X"`` (complete) event."""
    return {
        "name": name,
        "ph": "X",
        "ts": start * _US,
        "dur": max(0.0, (end - start) * _US),
        "pid": pid,
        "tid": tid,
        "args": {str(k): str(v) for k, v in sorted(labels.items())},
    }


def _span_events(span: Span, pid: int, tid: int,
                 end_fallback: float) -> Iterable[Dict[str, Any]]:
    for _depth, s in span.walk():
        end = s.end if s.end is not None else end_fallback
        yield span_event(s.name, s.start, end, pid, tid, s.labels)


def chrome_trace(spans: Iterable[Span], process_name: str = "cliquemap",
                 pid: int = 1) -> Dict[str, Any]:
    """Trace-event JSON for a collection of root spans.

    Each root span gets its own ``tid`` so overlapping operations render
    as parallel tracks; nesting within a track comes from the viewer's
    containment of ``"X"`` intervals. Unfinished spans are clipped to
    their root's extent.
    """
    events: List[Dict[str, Any]] = [{
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "args": {"name": process_name},
    }]
    for tid, root in enumerate(spans, start=1):
        root_end = root.end if root.end is not None else root.start
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": f"op {tid}: {root.name}"},
        })
        events.extend(_span_events(root, pid, tid, root_end))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Iterable[Span],
                       process_name: str = "cliquemap") -> int:
    """Write trace-event JSON to ``path``; returns the event count."""
    doc = chrome_trace(spans, process_name=process_name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])


# -- Prometheus text exposition ----------------------------------------------


def _escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _label_str(labels: Dict[str, str],
               extra: Optional[Dict[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{k}="{_escape(str(v))}"'
                     for k, v in sorted(merged.items()))
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (v0.0.4)."""
    lines: List[str] = []
    for name in registry.families():
        family = registry.family(name)
        ptype = "summary" if family.kind == "histogram" else family.kind
        if family.help:
            lines.append(f"# HELP {name} {_escape(family.help)}")
        lines.append(f"# TYPE {name} {ptype}")
        for series in family.series():
            if family.kind == "histogram":
                for q in (0.5, 0.9, 0.99):
                    val = series.percentile(q * 100.0)
                    lines.append(
                        f"{name}{_label_str(series.labels, {'quantile': repr(q)})}"
                        f" {_fmt(val)}")
                exemplar = ""
                exemplars = getattr(series, "exemplars", ())
                if exemplars:
                    value, trace_id, ts = exemplars[-1]
                    exemplar = (f" # {{trace_id=\"{_escape(trace_id)}\"}}"
                                f" {_fmt(value)} {_fmt(ts)}")
                lines.append(f"{name}_count{_label_str(series.labels)}"
                             f" {_fmt(series.count)}{exemplar}")
                lines.append(f"{name}_sum{_label_str(series.labels)}"
                             f" {_fmt(series.sum)}")
            else:
                lines.append(f"{name}{_label_str(series.labels)}"
                             f" {_fmt(series.value)}")
    return "\n".join(lines) + "\n"
