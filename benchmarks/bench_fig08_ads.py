"""Figure 8: the Ads workload over time (§7.1).

GET rate far exceeds SET rate; lookups are heavily batched (30-300 KV at
p99.9) which makes the client the incast bottleneck and pushes p99.9 tail
latency far above the median; backfill SET bursts ride alongside steady
writes. Rows printed: time, GET/s, SET/s, latency percentiles.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import run_once

from repro.analysis import render_percentile_lines, render_table
from repro.workloads import AdsScenario, AdsWorkload


def run_experiment():
    scenario = AdsScenario(num_shards=6, num_clients=4, num_keys=800,
                           get_rate_per_client=2500.0,
                           write_rate_per_client=40.0,
                           backfill_period=1.0,
                           duration=4.0)
    workload = AdsWorkload(scenario)
    workload.preload()
    metrics = workload.run()
    return workload, metrics


def bench_fig08_ads_workload(benchmark):
    workload, metrics = run_once(benchmark, run_experiment)
    timeline = metrics.get_timeline
    print()
    print(render_table(
        "Fig 8: Ads workload summary", ["metric", "value"],
        [["GET ops", metrics.gets],
         ["GET/s", f"{metrics.gets / workload.scenario.duration:,.0f}"],
         ["SET/s (writes)",
          f"{metrics.sets / workload.scenario.duration:,.0f}"],
         ["SET/s (backfill)",
          f"{workload.backfill_sets / workload.scenario.duration:,.0f}"],
         ["hit rate", f"{metrics.hit_rate:.3f}"],
         ["GET p50 (us)", f"{metrics.get_latency.percentile(50) * 1e6:.0f}"],
         ["GET p99.9 (us)",
          f"{metrics.get_latency.percentile(99.9) * 1e6:.0f}"]]))
    print()
    print(render_percentile_lines(
        "Fig 8: Ads latency percentiles (us) and rate over time",
        [("50p", [(t, v * 1e6) for t, v in timeline.series(50)]),
         ("90p", [(t, v * 1e6) for t, v in timeline.series(90)]),
         ("99p", [(t, v * 1e6) for t, v in timeline.series(99)]),
         ("99.9p", [(t, v * 1e6) for t, v in timeline.series(99.9)]),
         ("GET/s", timeline.rate_series())],
        x_label="t (s)"))

    # Shapes: GETs dominate SETs by >10x; batching-driven incast pushes
    # the p99.9 tail an order of magnitude past the median; the cache
    # serves essentially all lookups.
    total_sets = metrics.sets + workload.backfill_sets
    assert metrics.gets > 10 * total_sets
    assert workload.backfill_sets > 0
    assert metrics.get_latency.percentile(99.9) > \
        5 * metrics.get_latency.percentile(50)
    assert metrics.hit_rate > 0.99
    assert metrics.get_errors == 0
