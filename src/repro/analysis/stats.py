"""Measurement utilities: latency percentiles, time series, rates, CPU.

Benchmarks record operation latencies and byte/op counts here and read
back the same aggregates the paper's figures plot: percentile lines over
time, op-rate series, CPU-per-op, and CDFs.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim import percentile


class LatencyRecorder:
    """Collects scalar samples and reports percentiles."""

    def __init__(self, name: str = ""):
        self.name = name
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None

    def record(self, value: float) -> None:
        self._samples.append(value)
        self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        self._samples.extend(values)
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self._samples)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile; ``nan`` when no samples are recorded."""
        if not self._samples:
            return math.nan
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return percentile(self._sorted, p)

    def samples(self) -> List[float]:
        """A copy of the raw samples, in recording order."""
        return list(self._samples)

    def mean(self) -> float:
        """Arithmetic mean; ``nan`` when no samples are recorded.

        Empty recorders are routine (e.g. an error-only benchmark step),
        so this degrades to ``nan`` — which propagates visibly through
        arithmetic and formats as ``nan`` — instead of raising."""
        if not self._samples:
            return math.nan
        return sum(self._samples) / len(self._samples)


class TimeSeries:
    """(time, value) samples bucketed into fixed bins for plotting."""

    def __init__(self, bin_width: float, name: str = ""):
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = bin_width
        self.name = name
        self._bins: Dict[int, List[float]] = {}

    def record(self, t: float, value: float) -> None:
        self._bins.setdefault(int(t // self.bin_width), []).append(value)

    def bins(self) -> List[int]:
        return sorted(self._bins)

    def series(self, p: float = 50.0) -> List[Tuple[float, float]]:
        """Per-bin percentile as (bin_center_time, value) points."""
        out = []
        for b in self.bins():
            values = sorted(self._bins[b])
            out.append(((b + 0.5) * self.bin_width, percentile(values, p)))
        return out

    def counts(self) -> List[Tuple[float, int]]:
        return [((b + 0.5) * self.bin_width, len(self._bins[b]))
                for b in self.bins()]

    def rate_series(self) -> List[Tuple[float, float]]:
        """Events per second per bin."""
        return [(t, n / self.bin_width) for t, n in self.counts()]


class CounterSeries:
    """Accumulates additive quantities (e.g. bytes) into time bins."""

    def __init__(self, bin_width: float):
        self.bin_width = bin_width
        self._bins: Dict[int, float] = {}

    def add(self, t: float, amount: float) -> None:
        key = int(t // self.bin_width)
        self._bins[key] = self._bins.get(key, 0.0) + amount

    def per_second(self) -> List[Tuple[float, float]]:
        return [((b + 0.5) * self.bin_width, v / self.bin_width)
                for b, v in sorted(self._bins.items())]

    def total(self) -> float:
        return sum(self._bins.values())


def cdf_points(samples: Sequence[float],
               points: int = 100) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, fraction<=value) pairs."""
    if not samples:
        return []
    ordered = sorted(samples)
    n = len(ordered)
    step = max(1, n // points)
    out = [(ordered[i], (i + 1) / n) for i in range(0, n, step)]
    if out[-1][1] != 1.0:
        out.append((ordered[-1], 1.0))
    return out


def ks_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_a(x) - F_b(x)|.

    The statistic alone (no p-value machinery) — the population
    validation harness compares fixed-seed runs against a tolerance, so
    a distribution-free distance in [0, 1] is exactly what's needed.
    """
    if not a or not b:
        raise ValueError("ks_distance needs samples on both sides")
    xs, ys = sorted(a), sorted(b)
    na, nb = len(xs), len(ys)
    i = j = 0
    distance = 0.0
    while i < na and j < nb:
        if xs[i] <= ys[j]:
            i += 1
        else:
            j += 1
        gap = abs(i / na - j / nb)
        if gap > distance:
            distance = gap
    return distance
