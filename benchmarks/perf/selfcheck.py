#!/usr/bin/env python3
"""Run the whole suite twice on one commit and compare the two runs.

    python3 benchmarks/perf/selfcheck.py [--quick] [--seed N]

Asserts that ``BENCHMARK.json`` names exactly what ``run.py`` emits, that
(a) ``ops_digest`` and every simulated-time or count metric
is identical between the two runs, and (b) the host-time metrics
(``host_ops_per_s``, ``host_peak_rss_mb``, ``setup_s``) agree within
their bounds. Prints a per-workload table of both runs and the relative
gap, and exits non-zero on any disagreement or failed output check.

``--quick`` runs 1/20 of the op counts and one end-to-end replica (about
three minutes, nearly all of it set-up): it exercises the plumbing and the
output checks only, and skips the host-time comparison, which means
nothing at that size.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import run  # noqa: E402

HOST_TIME = ("host_ops_per_s", "host_peak_rss_mb", "setup_s")
#: traced metrics that are host time (or derived from it), hence noisy.
_NOISY_SUFFIXES = (".host_share", ".host_us_per_op", "_overhead_x",
                   ".host_ns_per_event", ".wall_over_cpu")
#: calls outside ``repro/`` include interpreter housekeeping (a GC pass,
#: a weakref callback), which differs by a call or two between runs.
_NOISY_NAMES = ("python.calls_per_op",)


def exact_names(trace: int):
    if not trace:
        return [n for n in run.END_TO_END if n not in HOST_TIME]
    return [n for n in list(layers.PER_LAYER_UNITS)
            if not n.endswith(_NOISY_SUFFIXES) and n not in _NOISY_NAMES
            and n not in layers.PROBE_UNITS]


def compare(first: dict, second: dict, trace: int, quick: bool) -> list:
    """Print the two runs side by side; return the disagreements."""
    problems = []
    name = first["workload"]
    for result in (first, second):
        if not result["correct"]:
            problems.append(f"{name}: output check failed: {result['bad']}")
    if first["detail"]["ops_digest"] != second["detail"]["ops_digest"]:
        problems.append(f"{name}: ops_digest differs between the runs")
    exact = set(exact_names(trace))
    print(f"== {name} (--trace {trace})")
    print(f"  {'metric':<44} {'run 1':>16} {'run 2':>16} {'gap':>9}")
    for metric, a in first["metrics"].items():
        a, b = a["value"], second["metrics"][metric]["value"]
        gap = abs(b - a) / abs(a) if a else abs(b)
        if metric in exact:
            verdict = "" if a == b else "  DIFFERS (must be identical)"
        elif metric in HOST_TIME and not quick:
            bound = run.END_TO_END[metric][2]
            verdict = "" if gap <= bound else f"  OVER BOUND {bound:.0%}"
        else:
            verdict = ""
        if verdict:
            problems.append(f"{name}: {metric} {a!r} vs {b!r}{verdict}")
        if verdict or metric not in exact or a != 0:
            print(f"  {metric:<44} {a:>16.6f} {b:>16.6f} {gap:>8.2%}"
                  f"{verdict}")
    return problems


def contract_problems() -> list:
    """BENCHMARK.json must name exactly what ``run.py`` emits."""
    path = os.path.join(run._ROOT, "BENCHMARK.json")
    with open(path) as fh:
        contract = json.load(fh)
    problems = []
    for key, ours in (("workloads", list(run.WORKLOAD_NAMES)),
                      ("end_to_end", list(run.END_TO_END)),
                      ("per_layer", list(layers.PER_LAYER_UNITS))):
        theirs = [entry["name"] for entry in contract[key]]
        if theirs != ours:
            problems.append(f"BENCHMARK.json {key} names differ from run.py: "
                            f"{sorted(set(theirs) ^ set(ours))}")
    for entry in contract["end_to_end"]:
        unit, better, bound = run.END_TO_END.get(entry["name"], (None,) * 3)
        if (entry["unit"], entry["better"], entry["bound"]) != \
                (unit, better, bound):
            problems.append(f"BENCHMARK.json disagrees with run.py on "
                            f"{entry['name']}")
    for entry in contract["per_layer"]:
        if entry["unit"] != layers.PER_LAYER_UNITS.get(entry["name"]):
            problems.append(f"BENCHMARK.json disagrees with layers.py on "
                            f"the unit of {entry['name']}")
    if contract["run_seconds"] != run.DEFAULT_SECONDS:
        problems.append("BENCHMARK.json run_seconds != run.DEFAULT_SECONDS")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    seconds = run.DEFAULT_SECONDS / (20 if args.quick else 1)
    replicas = 1 if args.quick else run.REPLICAS

    problems = contract_problems()
    try:
        for workload in run.WORKLOAD_NAMES:
            pairs = [[run.run_end_to_end(workload, args.seed, seconds,
                                         replicas) for _ in range(2)],
                     [run.run_traced(workload, args.seed, seconds)
                      for _ in range(2)]]
            for trace, (first, second) in enumerate(pairs):
                problems += compare(first, second, trace, args.quick)
    except run.ChildFailed as exc:
        print(f"selfcheck: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print("PROBLEM:", problem)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
