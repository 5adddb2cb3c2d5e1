"""Population-scale smoke: 10^7 offered key-ops against a 1000-host cell.

Two checks ride on one module:

* **Scale** — an aggregate :class:`~repro.workloads.ClientPopulation`
  models one million clients (5 GETs/s each, 2 simulated seconds — a
  10M-key-op offered load) against a 1000-host R=3.2 cell on a pool of
  8 driver processes, with op-sampling thinning the driven load to a
  measurable slice. The whole thing — cell build, preload, run — must
  finish inside a 60 s wall budget with zero errors; the offered-per-
  wall-second datapoint lands in ``BENCH_population.json`` with a
  regression floor, beside what the 1000-host cell cost the host to
  exist (build seconds, peak RSS, RSS per backend host under a
  ceiling).
* **Fidelity** — the population model must be a *measurement* device,
  not a different workload. ``compare_population`` replays one seed with
  N real open-loop clients and with the aggregate model and asserts the
  latency distributions (two-sample KS), hit rates, and delivered-op
  counts agree within tolerance.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import RSS_MB_PER_HOST_CEILING, check_build_cost, run_once

from repro.analysis import compare_population, run_population_arm

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_population.json"

NUM_HOSTS = 1000
MODELED_CLIENTS = 1_000_000
RATE_PER_CLIENT = 5.0            # offered GETs/s per modeled client
DURATION = 2.0                   # simulated seconds
OFFERED_FLOOR = 10_000_000       # key-ops the run must offer
OP_SAMPLE_RATE = 0.002           # drive a ~20k-key-op measured slice
DRIVERS = 4
BATCH_MEDIAN = 40.0              # ~250k arrival events at 10M key-ops
NUM_KEYS = 2_000_000             # zipf corpus; preload the hot head only
PRELOAD_KEYS = 2048
# 1RMA for the scale arm: the pony engine autoscaler's 200us utilization
# sampler is ~5k events/sim-second *per host* — at 1000 hosts over 2
# sim-seconds that alone is ~10M events, swamping the workload under
# measure. Fidelity (below) stays on the default pony transport.
TRANSPORT = "1rma"
WALL_BUDGET_SECONDS = 60.0

# Regression floor: offered key-ops per wall-clock second for the scale
# run. Fresh-container calibration lands ~4x above this; the floor
# catches order-of-magnitude regressions, not scheduler jitter.
OFFERED_PER_WALL_SEC_FLOOR = 100_000.0

# Fidelity tolerances (seeded, so these are deterministic bounds, not
# flaky statistical tests — see tests/integration/test_population.py
# for the per-seed margins).
KS_TOLERANCE = 0.15
HIT_RATE_TOLERANCE = 0.05
DELIVERED_RATIO_BAND = (0.85, 1.15)


def _run_population_scale():
    return run_population_arm(
        "population",
        num_modeled=MODELED_CLIENTS,
        rate_per_client=RATE_PER_CLIENT,
        duration=DURATION,
        num_drivers=DRIVERS,
        num_hosts=NUM_HOSTS,
        num_keys=NUM_KEYS,
        transport=TRANSPORT,
        preload_fraction=PRELOAD_KEYS / NUM_KEYS,
        batch_median=BATCH_MEDIAN,
        op_sample_rate=OP_SAMPLE_RATE,
        seed=7)


def bench_population_scale(benchmark):
    run = run_once(benchmark, _run_population_scale)
    print()
    print(f"  hosts={NUM_HOSTS} modeled_clients={MODELED_CLIENTS:,} "
          f"drivers={run['drivers']}")
    print(f"  offered={run['offered']:,} driven={run['driven']:,} "
          f"(sample_rate={run['op_sample_rate']}) shed={run['shed']:,}")
    print(f"  ops={run['ops']:,} hit_rate={run['hit_rate']:.3f} "
          f"errors={run['errors']} "
          f"p99={run['latency_us']['p99']:.0f}us")
    print(f"  wall={run['wall_seconds']:.1f}s "
          f"(budget {WALL_BUDGET_SECONDS:.0f}s) "
          f"events/s={run['events_per_sec']:,.0f} "
          f"offered/wall-s={run['offered_per_wall_sec']:,.0f} "
          f"gc={run['gc_collections']} in {run['gc_seconds']:.2f}s")

    assert run["offered"] >= OFFERED_FLOOR, run["offered"]
    assert run["errors"] == 0, run
    assert run["wall_seconds"] < WALL_BUDGET_SECONDS, (
        f"population smoke too slow: {run['wall_seconds']:.1f}s "
        f"for {run['offered']:,} offered key-ops")
    assert run["offered_per_wall_sec"] >= OFFERED_PER_WALL_SEC_FLOOR, (
        f"offered/wall-s regressed: {run['offered_per_wall_sec']:,.0f} "
        f"< floor {OFFERED_PER_WALL_SEC_FLOOR:,.0f}")
    check_build_cost(run)

    del run["latency_samples"]
    record = {
        "benchmark": "population",
        "floor_offered_per_wall_sec": OFFERED_PER_WALL_SEC_FLOOR,
        "ceiling_rss_mb_per_host": RSS_MB_PER_HOST_CEILING,
        "scale": run,
    }
    if OUTPUT.exists():
        prior = json.loads(OUTPUT.read_text())
        record["fidelity"] = prior.get("fidelity")
    OUTPUT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"  wrote {OUTPUT.name} (scale section)")


def bench_population_fidelity(benchmark):
    """N real clients vs the aggregate model, one seed: the shapes must
    agree. Small cell — fidelity is a property of the arrival/identity
    model, not of the cell size."""
    def arms():
        return compare_population(num_modeled=16, num_drivers=2,
                                  rate_per_client=400.0, duration=0.5,
                                  seed=11)

    result = run_once(benchmark, arms)
    cmp = result["comparison"]
    print()
    print(f"  real: ops={result['real']['ops']:,} "
          f"hit_rate={result['real']['hit_rate']:.4f} "
          f"p99={result['real']['latency_us']['p99']:.0f}us")
    print(f"  pop:  ops={result['population']['ops']:,} "
          f"hit_rate={result['population']['hit_rate']:.4f} "
          f"p99={result['population']['latency_us']['p99']:.0f}us")
    print(f"  ks={cmp['ks_distance']:.4f} "
          f"hit_delta={cmp['hit_rate_delta']:.4f} "
          f"delivered_ratio={cmp['delivered_ratio']:.3f} "
          f"p99_ratio={cmp['p99_ratio']:.3f}")

    assert cmp["ks_distance"] < KS_TOLERANCE, cmp
    assert cmp["hit_rate_delta"] < HIT_RATE_TOLERANCE, cmp
    lo, hi = DELIVERED_RATIO_BAND
    assert lo < cmp["delivered_ratio"] < hi, cmp

    if OUTPUT.exists():
        record = json.loads(OUTPUT.read_text())
    else:
        record = {"benchmark": "population"}
    record["fidelity"] = result
    OUTPUT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"  wrote {OUTPUT.name} (fidelity section)")
