"""Figure 10: Ads and Geo object-size CDFs (§7.1).

Objects are typically small — at most a few KB, below the 5KB MTU — with
a tail of larger values; the Ads distribution sits to the right of Geo.
Prints the two CDFs side by side at the paper's log-scale checkpoints.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import run_once

from repro.analysis import render_table
from repro.net.nic import MTU_BYTES
from repro.sim import RandomStream, percentile
from repro.workloads import ads_object_sizes, geo_object_sizes

SAMPLES = 30000
CHECKPOINT_SIZES = [128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536]


def run_experiment():
    stream = RandomStream(13, "fig10")
    ads = sorted(ads_object_sizes(stream.child("ads")).sample()
                 for _ in range(SAMPLES))
    geo = sorted(geo_object_sizes(stream.child("geo")).sample()
                 for _ in range(SAMPLES))
    return ads, geo


def cdf_at(sorted_samples, size):
    import bisect
    return bisect.bisect_right(sorted_samples, size) / len(sorted_samples)


def bench_fig10_object_size_cdfs(benchmark):
    ads, geo = run_once(benchmark, run_experiment)
    rows = [[size, f"{cdf_at(ads, size):.3f}", f"{cdf_at(geo, size):.3f}"]
            for size in CHECKPOINT_SIZES]
    print()
    print(render_table("Fig 10: object-size CDFs",
                       ["size (B)", "Ads CDF", "Geo CDF"], rows))
    print(f"   Ads: p50={percentile(ads, 50)}B  p99={percentile(ads, 99)}B")
    print(f"   Geo: p50={percentile(geo, 50)}B  p99={percentile(geo, 99)}B")

    # Geo's CDF sits left of Ads' at every checkpoint (Geo is smaller).
    for size in CHECKPOINT_SIZES:
        assert cdf_at(geo, size) >= cdf_at(ads, size)
    # Typical objects are small: medians of a few KB at most, below MTU.
    assert percentile(ads, 50) < MTU_BYTES
    assert percentile(geo, 50) < 1024
    # But both have a tail of much larger objects.
    assert percentile(ads, 99.9) > 10 * percentile(ads, 50)
    assert percentile(geo, 99.9) > 10 * percentile(geo, 50)
