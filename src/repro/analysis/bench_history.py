"""Bench-trajectory tracker: every ``BENCH_*.json`` in one table.

Each benchmark in ``benchmarks/`` writes one JSON file at the repo root
(``BENCH_kernel.json``, ``BENCH_parallel.json``, ...) with its headline
numbers and — for the guarded ones — a recorded regression floor. The
perf record therefore lives in six disconnected files with six
different shapes. This module flattens them into one trajectory table:
benchmark → headline metric → value, floor, and margin over the floor,
so ``repro.tools perf history`` (and CI logs) can show the whole perf
posture at a glance and flag any metric sitting under its floor.

Shapes differ per benchmark, so extraction is a declarative list of
``(metric, value_path, floor_path)`` dotted paths per benchmark name,
with missing paths degrading to blank cells rather than errors — an
absent bench file or a schema drift must never break the tracker.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any, Dict, List, Optional

from .reporting import render_table

# metric name -> (value dotted-path, floor dotted-path or None)
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
    ],
    "readthrough_herd": [
        ("fetch_reduction", "fetch_reduction", "fetch_reduction_floor"),
        ("coalescing_ratio", "coalesced.coalescing_ratio", None),
    ],
    "scale": [
        ("ops_per_wall_sec", "ops_per_wall_sec", None),
        ("events_per_sec", "events_per_sec", None),
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

    Each row: ``benchmark``, ``metric``, ``value``, ``floor``,
    ``margin`` (value/floor when both known), ``ok`` (False only when a
    floored metric sits below its floor).
    """
    rows: List[Dict[str, Any]] = []
    for name in sorted(benches):
        doc = benches[name]
        specs = _SPECS.get(name, [])
        if not specs:
            # Unknown benchmark: surface any top-level floor pairs so
            # new benches appear in the table without code changes.
            specs = [(k[len("floor_"):], k[len("floor_"):], k)
                     for k in sorted(doc) if k.startswith("floor_")]
        for metric, value_path, floor_path in specs:
            value = _dig(doc, value_path)
            floor = _dig(doc, floor_path)
            margin = None
            ok = True
            if isinstance(value, (int, float)) and \
                    isinstance(floor, (int, float)) and floor:
                margin = value / floor
                ok = value >= floor
            rows.append({"benchmark": name, "metric": metric,
                         "value": value, "floor": floor,
                         "margin": margin, "ok": ok})
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
              _fmt(row["floor"]),
              "-" if row["margin"] is None else f"{row['margin']:.2f}x",
              "ok" if row["ok"] else "UNDER FLOOR"]
             for row in rows]
    return render_table(
        "perf trajectory",
        ["benchmark", "metric", "value", "floor", "margin", "status"],
        table)


def perf_history(root: str = ".") -> Dict[str, Any]:
    """One-call driver for ``repro.tools perf history``."""
    rows = bench_rows(load_bench_files(root))
    return {"rows": rows, "rendered": render_history(rows),
            "regressions": [r for r in rows if not r["ok"]]}


__all__ = ["load_bench_files", "bench_rows", "render_history",
           "perf_history"]
