"""Bench-trajectory tracker: every ``BENCH_*.json`` in one table.

Each benchmark in ``benchmarks/`` writes one JSON file at the repo root
(``BENCH_kernel.json``, ``BENCH_parallel.json``, ...) with its headline
numbers and — for the guarded ones — a recorded regression bound. The
perf record therefore lives in six disconnected files with six
different shapes. This module flattens them into one trajectory table:
benchmark → headline metric → value, bound, and margin against the
bound, so ``repro.tools perf history`` (and CI logs) can show the whole
perf posture at a glance and flag any metric on the wrong side of its
bound.

Shapes differ per benchmark, so extraction is a declarative list of
``(metric, value_path, bound_path)`` dotted paths per benchmark name,
with missing paths degrading to blank cells rather than errors — an
absent bench file or a schema drift must never break the tracker. A
bound is a floor (higher is better) unless its key starts with
``ceiling_``: then lower is better and the metric must sit at or under
it.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any, Dict, List, Optional

from .reporting import render_table

# metric name -> (value dotted-path, bound dotted-path or None)
_SPECS: Dict[str, List[tuple]] = {
    "kernel": [
        ("events_per_sec", "new.events_per_sec", "floor_events_per_sec"),
    ],
    "multiget": [
        ("latency_speedup", "latency_speedup", None),
        ("engine_cpu_speedup", "engine_cpu_speedup", None),
    ],
    "parallel": [
        ("events_per_critical_sec", "run.parallel.events_per_critical_sec",
         "floor_events_per_critical_sec"),
        ("speedup_critical_path", "run.speedup_critical_path",
         "floor_speedup_critical_path"),
    ],
    "population": [
        ("events_per_sec", "fidelity.population.events_per_sec", None),
        ("ks_distance", "fidelity.comparison.ks_distance", None),
        ("offered_per_wall_sec", "scale.offered_per_wall_sec",
         "floor_offered_per_wall_sec"),
        ("wall_seconds", "scale.wall_seconds", None),
        ("build_seconds", "scale.build_seconds", None),
        ("peak_rss_mb", "scale.peak_rss_mb", None),
        ("rss_mb_per_host", "scale.rss_mb_per_host",
         "ceiling_rss_mb_per_host"),
    ],
    "readthrough_herd": [
        ("fetch_reduction", "fetch_reduction", "fetch_reduction_floor"),
        ("coalescing_ratio", "coalesced.coalescing_ratio", None),
    ],
    "scale": [
        ("ops_per_wall_sec", "ops_per_wall_sec", None),
        ("events_per_sec", "events_per_sec", None),
        ("build_seconds", "build_seconds", None),
        ("peak_rss_mb", "peak_rss_mb", None),
        ("rss_mb_per_host", "rss_mb_per_host", "ceiling_rss_mb_per_host"),
    ],
    "resize_handoff": [
        ("handoff_entries_per_sec", "handoff_entries_per_sec",
         "throughput_floor"),
        ("p99_impact", "p99_impact", None),
    ],
}


def _dig(doc: Any, path: Optional[str]) -> Optional[Any]:
    if path is None:
        return None
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def load_bench_files(root: str = ".") -> Dict[str, Dict[str, Any]]:
    """All ``BENCH_*.json`` under ``root``, keyed by their ``benchmark``
    field (falling back to the filename stem)."""
    benches: Dict[str, Dict[str, Any]] = {}
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            continue
        stem = os.path.basename(path)[len("BENCH_"):-len(".json")]
        benches[doc.get("benchmark", stem)] = doc
    return benches


def bench_rows(benches: Dict[str, Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Flatten loaded bench docs into trajectory rows.

    Each row: ``benchmark``, ``metric``, ``value``, ``bound``,
    ``ceiling`` (the bound is an upper one), ``margin`` (value/bound
    when both known), ``ok`` (False only when a bounded metric sits on
    the wrong side of its bound).
    """
    rows: List[Dict[str, Any]] = []
    for name in sorted(benches):
        doc = benches[name]
        specs = _SPECS.get(name, [])
        if not specs:
            # Unknown benchmark: surface any top-level bound pairs so
            # new benches appear in the table without code changes.
            specs = [(k.split("_", 1)[1],) * 2 + (k,) for k in sorted(doc)
                     if k.startswith(("floor_", "ceiling_"))]
        for metric, value_path, bound_path in specs:
            value = _dig(doc, value_path)
            bound = _dig(doc, bound_path)
            ceiling = bound is not None and \
                bound_path.rsplit(".", 1)[-1].startswith("ceiling_")
            margin = None
            ok = True
            if isinstance(value, (int, float)) and \
                    isinstance(bound, (int, float)) and bound:
                margin = value / bound
                ok = value <= bound if ceiling else value >= bound
            rows.append({"benchmark": name, "metric": metric,
                         "value": value, "bound": bound,
                         "ceiling": ceiling, "margin": margin, "ok": ok})
    return rows


def _fmt(value: Optional[Any]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:,.3f}" if abs(value) < 1000 else f"{value:,.0f}"
    return str(value)


def render_history(rows: List[Dict[str, Any]]) -> str:
    """The ``perf history`` table, one line per tracked metric."""
    if not rows:
        return "no BENCH_*.json files found"
    table = [[row["benchmark"], row["metric"], _fmt(row["value"]),
              ("<= " if row["ceiling"] else "") + _fmt(row["bound"]),
              "-" if row["margin"] is None else f"{row['margin']:.2f}x",
              "ok" if row["ok"] else
              "OVER CEILING" if row["ceiling"] else "UNDER FLOOR"]
             for row in rows]
    return render_table(
        "perf trajectory",
        ["benchmark", "metric", "value", "bound", "margin", "status"],
        table)


def perf_history(root: str = ".") -> Dict[str, Any]:
    """One-call driver for ``repro.tools perf history``."""
    rows = bench_rows(load_bench_files(root))
    return {"rows": rows, "rendered": render_history(rows),
            "regressions": [r for r in rows if not r["ok"]]}


__all__ = ["load_bench_files", "bench_rows", "render_history",
           "perf_history"]
