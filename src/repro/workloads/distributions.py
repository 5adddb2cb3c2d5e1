"""Workload distributions shaped on the paper's production data (§7.1).

Figure 10 shows both Ads and Geo serve mostly-small objects (typically at
most a few KB — smaller than the 5KB MTU) with a tail of larger ones; Ads
skews larger than Geo. Batch sizes are highly skewed too: Ads reaches
30-300 KV pairs at the 99.9th percentile, Geo is usually tens of segments.
"""

from __future__ import annotations

import math

from ..sim import MixtureSizeDistribution, RandomStream


def ads_object_sizes(stream: RandomStream) -> MixtureSizeDistribution:
    """Ads: ~1KB typical, visible tail into tens of KB."""
    return MixtureSizeDistribution(
        stream,
        components=[
            (0.50, math.log(700), 0.80),     # topic metadata
            (0.40, math.log(2500), 0.70),    # creative payloads
            (0.10, math.log(30000), 0.90),   # large composite entries
        ],
        # The tail is clipped to what one slab can hold (BackendConfig
        # defaults); production Ads values run larger but are similarly
        # bounded by the deployment's largest size class.
        min_size=64, max_size=200 * 1024)


def geo_object_sizes(stream: RandomStream) -> MixtureSizeDistribution:
    """Geo: compact road-segment summaries, a few hundred bytes typical."""
    return MixtureSizeDistribution(
        stream,
        components=[
            (0.65, math.log(180), 0.55),     # per-segment utilization
            (0.30, math.log(900), 0.65),     # busier segments
            (0.05, math.log(6000), 0.90),    # aggregate records
        ],
        min_size=32, max_size=1 << 18)


class BatchSizeSampler:
    """Lognormal batch sizes clipped to a range."""

    def __init__(self, stream: RandomStream, median: float, sigma: float,
                 hi: int = 400):
        self._stream = stream
        self._mu = math.log(median)
        self._sigma = sigma
        self.hi = hi

    def sample(self) -> int:
        draw = int(round(self._stream.lognormal(self._mu, self._sigma)))
        return max(1, min(self.hi, draw))


def ads_batch_sizes(stream: RandomStream) -> BatchSizeSampler:
    """Highly batched: p99.9 lands in the 30-300 range (§7.1)."""
    return BatchSizeSampler(stream, median=8, sigma=1.15, hi=300)


def geo_batch_sizes(stream: RandomStream) -> BatchSizeSampler:
    """Tens of road segments per lookup (§7.1)."""
    return BatchSizeSampler(stream, median=20, sigma=0.45, hi=100)


def diurnal_rate(base_rate: float, amplitude: float = 0.5,
                 period: float = 86400.0, phase: float = 0.0):
    """A day-shaped rate multiplier: rate(t) in [base*(1-a), base*(1+a)].

    Geo's GET traffic varies ~3x over a day (§7.1); amplitude=0.5 gives
    exactly a 3x peak-to-trough swing.
    """

    def rate(t: float) -> float:
        return base_rate * (1.0 + amplitude *
                            math.sin(2 * math.pi * (t + phase) / period))

    return rate
