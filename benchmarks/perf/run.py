#!/usr/bin/env python3
"""The repo's one benchmark: four op-path workloads, measured from outside.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N]
                                   [--seconds S] [--trace 0|1] [--out FILE]

``--trace 0`` measures the end-to-end metrics (profiler and span walk
off); ``--trace 1`` measures the per-layer metrics (profile pass, span
pass, exact counts, hash-seed probe, micro-probes). Every measurement
runs in its own fresh subprocess with ``PYTHONHASHSEED=0``, one at a
time. Every metric is printed by name with its unit, outputs are
checked, and the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without
``--workload`` all four run and ``metrics`` is keyed by workload.

See README.md beside this file for what each name means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
sys.path.insert(0, _HERE)

import layers  # noqa: E402  (needs _HERE on the path)

#: workload -> client ops the timed phase issues per requested second.
#: Frozen, so a run is the same work on every commit; sized so that the
#: timed phase takes about ``--seconds`` of host CPU on the 2-core
#: reference box.
OPS_PER_SECOND = {
    "get_2xr_pony": 2400,
    "multiget_1rma": 2000,
    "mix_rpc_evict": 1500,
    "chaos_observed_open": 1300,
}
WORKLOAD_NAMES = tuple(OPS_PER_SECOND)

#: name -> (unit, better, bound). ``bound`` is the share of the parent's
#: median by which the metric may get worse before a change is rejected.
#: The simulated-time bounds are at least three times the spread measured
#: across ten seeds on the landing commit (README.md, "Run-to-run
#: spread"); the host-time ones are as wide as this sandbox's drift needs.
END_TO_END = {
    "host_ops_per_s": ("1/s", "higher", 0.25),
    "host_peak_rss_mb": ("MiB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
    "sim_get_p50_us": ("us", "lower", 0.01),
    "sim_get_p99_us": ("us", "lower", 0.05),
    "sim_get_p999_us": ("us", "lower", 0.15),
    "sim_set_p50_us": ("us", "lower", 0.01),
    "sim_set_p99_us": ("us", "lower", 0.02),
    "sim_ops_per_s": ("1/s", "higher", 0.10),
    "sim_cpu_us_per_op": ("us/op", "lower", 0.06),
    "op_ok_share": ("share", "higher", 0.001),
    "hit_share": ("share", "higher", 0.06),
}

#: Each end-to-end run is this many independent replicas (sub-seeds) of
#: the workload, one fresh process each: three set-ups give ``setup_s``
#: and peak RSS a median, and three address-space layouts average out
#: what one process's layout does to host speed.
REPLICAS = 3
#: A p99 needs ten samples beyond it. A workload whose timed phase issues
#: fewer SETs than this reports the latency of its preload SETs instead
#: (every workload preloads by SET; the GET-only ones issue no others).
MIN_TIMED_SETS = 1000
HASHSEED_PROBE = ("get_2xr_pony", 2000, ("0", "7"))
DEFAULT_SECONDS = 15


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

class ChildFailed(RuntimeError):
    pass


def spawn(mode: str, workload: str = "-", seed: int = 0, ops: int = 0,
          hashseed: str = "0") -> dict:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, os.path.join(_HERE, "worker.py"), mode, workload,
         str(seed), str(ops)],
        env=env, cwd=_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    if proc.returncode != 0:
        raise ChildFailed(f"worker {mode} {workload} seed={seed} exited "
                          f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    return n - max(1, math.ceil(q * n))


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0)
# ---------------------------------------------------------------------------

def replica_ops(workload: str, seconds: float) -> int:
    return max(1, round(OPS_PER_SECOND[workload] * seconds / REPLICAS))


def run_end_to_end(workload: str, seed: int, seconds: float,
                   replicas: int = REPLICAS) -> dict:
    ops = replica_ops(workload, seconds)
    children = [spawn("plain", workload, seed * 16 + i, ops)
                for i in range(replicas)]
    bad = next((c["bad"] for c in children if c["bad"]), None)

    get_lat = sorted(x for c in children for x in c["get_lat"])
    set_source = "timed"
    set_lat = sorted(x for c in children for x in c["set_lat"])
    if len(set_lat) < MIN_TIMED_SETS:
        set_source = "preload"
        set_lat = sorted(x for c in children for x in c["preload_set_lat"])
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    delivered = attempted - sum(c["shed"] for c in children)
    gets = sum(c["gets"] for c in children)
    cache_hits = sum(c["hits"] - c["sor_hits"] for c in children)
    values = {
        "host_ops_per_s": statistics.median(
            c["attempted"] / c["timed"]["cpu_s"] for c in children),
        "host_peak_rss_mb": statistics.median(
            c["peak_rss_mb"] for c in children),
        "setup_s": statistics.median(c["setup"]["cpu_s"] for c in children),
        "sim_get_p50_us": percentile(get_lat, 0.50) * 1e6,
        "sim_get_p99_us": percentile(get_lat, 0.99) * 1e6,
        "sim_get_p999_us": percentile(get_lat, 0.999) * 1e6,
        "sim_set_p50_us": percentile(set_lat, 0.50) * 1e6,
        "sim_set_p99_us": percentile(set_lat, 0.99) * 1e6,
        "sim_ops_per_s": delivered / sum(c["sim_seconds"] for c in children),
        "sim_cpu_us_per_op": sum(c["sim_cpu_s"] for c in children)
        / delivered * 1e6,
        "op_ok_share": 1.0 - failed / attempted,
        "hit_share": cache_hits / gets,
    }
    detail = {
        "ops_per_replica": ops,
        "replica_seeds": [c["seed"] for c in children],
        "ops_digest": "+".join(c["digest"] for c in children),
        "n_get": len(get_lat), "n_set": len(set_lat),
        "set_latency_source": set_source,
        "p999_samples_beyond": samples_beyond(len(get_lat), 0.999),
        "cas_lost": sum(c["cas_lost"] for c in children),
        "shed": sum(c["shed"] for c in children),
        "wall_over_cpu": [c["timed"]["wall_s"] / c["timed"]["cpu_s"]
                          for c in children],
        "replicas": [{"seed": c["seed"], "setup": c["setup"],
                      "timed_cpu_s": c["timed"]["cpu_s"],
                      "timed_wall_s": c["timed"]["wall_s"],
                      "attempted": c["attempted"],
                      "peak_rss_mb": c["peak_rss_mb"],
                      "sim_seconds": c["sim_seconds"]} for c in children],
    }
    return {"workload": workload, "correct": bad is None, "bad": bad,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name],
                               "unit": END_TO_END[name][0]}
                        for name in END_TO_END},
            "detail": detail}


# ---------------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------------

def hashseed_digest_stable() -> dict:
    """Replay one slice under two hash seeds; 1.0 iff the digests agree.

    Nothing is timed here, so the two replays run side by side.
    """
    workload, ops, hashseeds = HASHSEED_PROBE
    with ThreadPoolExecutor(len(hashseeds)) as pool:
        runs = list(pool.map(
            lambda hs: spawn("plain", workload, 1, ops, hashseed=hs),
            hashseeds))
    digests = {hs: run["digest"] for hs, run in zip(hashseeds, runs)}
    return {"stable": float(len(set(digests.values())) == 1),
            "digests": digests}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """Three passes over the end-to-end run's first replica."""
    ops = replica_ops(workload, seconds)
    seed *= 16
    plain = spawn("plain", workload, seed, ops)
    profiled = spawn("profile", workload, seed, ops)
    spanned = spawn("spans", workload, seed, ops)
    hashseed = hashseed_digest_stable()
    probes = spawn("probes")["probes"]

    bad = next((c["bad"] for c in (plain, profiled, spanned) if c["bad"]),
               None)
    if bad is None and not (plain["digest"] == profiled["digest"]
                            == spanned["digest"]):
        bad = ("the profile or span pass changed the simulated outcome: "
               f"digests {plain['digest']} / {profiled['digest']} / "
               f"{spanned['digest']}")

    plain_us_per_op = plain["timed"]["cpu_s"] / plain["attempted"] * 1e6
    values: Dict[str, float] = dict(plain["counts"])
    values.update(probes)
    profile = profiled["profile"]
    profiled_s = sum(row["self_s"] for row in profile.values())
    for layer in layers.LAYERS:
        share = profile[layer]["self_s"] / profiled_s
        values[f"{layer}.host_share"] = share
        values[f"{layer}.host_us_per_op"] = share * plain_us_per_op
        values[f"{layer}.calls_per_op"] = \
            profile[layer]["calls"] / profiled["attempted"]
    values["harness.profile_overhead_x"] = \
        profiled["timed"]["cpu_s"] / profiled["attempted"] \
        / plain_us_per_op * 1e6

    spans = spanned["spans"]
    for layer in layers.SPAN_PASS_LAYERS:
        values[f"{layer}.sim_us_per_op"] = \
            spans["self_s"][layer] / spans["roots"] * 1e6
    values["telemetry.spans_per_op"] = spans["spans"] / spanned["attempted"]
    values["telemetry.span_pass_overhead_x"] = \
        spanned["timed"]["cpu_s"] / spanned["attempted"] \
        / plain_us_per_op * 1e6
    values["harness.wall_over_cpu"] = \
        plain["timed"]["wall_s"] / plain["timed"]["cpu_s"]
    values["harness.hashseed_digest_stable"] = hashseed["stable"]

    share_sum = sum(values[f"{layer}.host_share"] for layer in layers.LAYERS)
    span_sum_s = sum(spans["self_s"].values())
    if bad is None and abs(share_sum - 1.0) > 1e-3:
        bad = f"layer host shares sum to {share_sum!r}, not 1"
    if bad is None and abs(span_sum_s - spans["latency_s"]) > \
            1e-6 * spans["latency_s"]:
        bad = (f"span self times sum to {span_sum_s!r} s over "
               f"{spans['roots']} ops whose latencies sum to "
               f"{spans['latency_s']!r} s")

    detail = {
        "ops": ops, "ops_digest": plain["digest"],
        "plain_host_us_per_op": plain_us_per_op,
        "mean_root_latency_us": spans["latency_s"] / spans["roots"] * 1e6,
        "span_roots": spans["roots"],
        "unmapped_spans": spans["unmapped"],
        "hashseed_digests": hashseed["digests"],
        "noisy": values["harness.wall_over_cpu"] > 1.15,
        "passes": {c["mode"]: {"setup": c["setup"],
                               "timed_cpu_s": c["timed"]["cpu_s"],
                               "timed_wall_s": c["timed"]["wall_s"],
                               "attempted": c["attempted"]}
                   for c in (plain, profiled, spanned)},
    }
    return {"workload": workload, "correct": bad is None, "bad": bad,
            "attempted": plain["attempted"], "failed": plain["failed"],
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in layers.PER_LAYER_UNITS.items()},
            "detail": detail}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def environment(seed: int, seconds: float, trace: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"git_sha": sha, "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(), "platform": platform.platform(),
            "seed": seed, "hashseed": "0", "seconds": seconds,
            "trace": trace, "replicas": REPLICAS,
            "started_unix": time.time()}


def print_result(result: dict) -> None:
    print(f"== {result['workload']}: attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<46} {metric['value']:>16.6f} {metric['unit']}")
    detail = result["detail"]
    for key in ("ops_digest", "n_get", "n_set", "set_latency_source",
                "p999_samples_beyond", "unmapped_spans", "hashseed_digests",
                "noisy"):
        if key in detail:
            print(f"  [{key}] {detail[key]}")
    if result["bad"]:
        print(f"  FIRST OFFENDING OP / CHECK: {result['bad']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result JSON here")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        print("run.py: no src/repro beside benchmarks/; nothing to measure",
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    runner = run_traced if args.trace else run_end_to_end
    env = environment(args.seed, args.seconds, args.trace)
    results = []
    try:
        for name in names:
            result = runner(name, args.seed, args.seconds)
            print_result(result)
            results.append(result)
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"environment": env, "results": results}, fh, indent=1)
            fh.write("\n")
    correct = all(r["correct"] for r in results)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if args.workload else
        {r["workload"]: r["metrics"] for r in results},
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
