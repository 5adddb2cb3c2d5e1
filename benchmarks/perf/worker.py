"""One measurement in one fresh process (spawned by ``run.py``).

``python3 worker.py MODE WORKLOAD SEED OPS`` sets a workload up once,
runs its timed phase for ``OPS`` client operations, and prints one JSON
object on the last line of stdout. Modes:

* ``plain``   — what the end-to-end metrics and the exact counts come from;
* ``profile`` — the same run with cProfile around the timed phase;
* ``spans``   — the same run with ``CellSpec.tracing=True`` and every
  ``OpResult.trace`` walked;
* ``probes``  — the single-layer micro-probes (workload/seed/ops ignored).

The parent pins ``PYTHONHASHSEED``; this process only reports it.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(_HERE)),
                                "src"))


def measure(mode: str, workload_name: str, seed: int, ops: int) -> dict:
    import layers
    from workloads import WORKLOADS, Recorder

    ledger = layers.SpanLedger() if mode == "spans" else None
    cpu0, wall0 = time.process_time(), time.perf_counter()
    workload = WORKLOADS[workload_name](seed, tracing=mode == "spans")
    gc.collect()        # set-up garbage is set-up cost, not the timed phase's
    setup_cpu = time.process_time() - cpu0
    setup_wall = time.perf_counter() - wall0

    rec = Recorder(ledger)
    counters = layers.CounterReader(workload)
    before = counters.read()
    profiling = cProfile.Profile() if mode == "profile" else nullcontext()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    with profiling as profiler:
        workload.drive(ops, rec)
    timed_cpu = time.process_time() - cpu0
    timed_wall = time.perf_counter() - wall0
    delta = layers.counter_delta(before, counters.read())
    gauges = layers.read_gauges(workload)

    bad = rec.bad or workload.verify(rec)
    if bad is None and ledger is not None:
        bad = ledger.bad
    out = {
        "mode": mode, "workload": workload_name, "seed": seed,
        "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "ops_requested": ops,
        "bad": bad,
        "attempted": rec.attempted, "failed": rec.failed,
        "gets": rec.gets, "hits": rec.hits, "sor_hits": rec.sor_hits,
        "shed": rec.shed, "cas_lost": rec.cas_lost,
        "digest": rec.digest,
        "get_lat": rec.get_lat,
        "set_lat": rec.set_lat,
        "preload_set_lat": workload.preload_set_lat,
        "setup": {"cpu_s": setup_cpu, "wall_s": setup_wall,
                  "phases_cpu_s": workload.phases.cpu,
                  "phases_wall_s": workload.phases.wall},
        "timed": {"cpu_s": timed_cpu, "wall_s": timed_wall},
        "sim_seconds": delta["sim_now"],
        "sim_cpu_s": delta["cpu.total"],
        "counts": layers.count_metrics(delta, gauges, rec, timed_cpu),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if profiler is not None:
        out["profile"] = layers.profile_by_layer(profiler)
    if ledger is not None:
        out["spans"] = {"self_s": ledger.self_s, "roots": ledger.roots,
                        "spans": ledger.spans,
                        "latency_s": ledger.latency_s,
                        "unmapped": ledger.unmapped}
    return out


def main(argv) -> int:
    mode = argv[1]
    if mode == "probes":
        from probes import run_probes
        out = {"mode": mode, "probes": run_probes()}
    else:
        out = measure(mode, argv[2], int(argv[3]), int(argv[4]))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
