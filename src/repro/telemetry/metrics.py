"""A process-wide metrics registry: counters, gauges, histograms.

Modeled on production monitoring systems (Monarch/Prometheus shape): a
:class:`MetricsRegistry` holds named *families*, each family holds
labeled *series*, and a point-in-time :meth:`MetricsRegistry.snapshot`
is what dashboards, benchmarks, and the ``repro.tools metrics`` CLI
consume. The paper's figures are all reads of exactly this kind of
surface — latency percentiles, op counts, CPU per op — collected from
production monitoring.

Histograms retain raw samples so their percentiles agree *exactly* with
:func:`repro.sim.percentile` and the ``analysis.stats`` recorders they
replace — up to a configurable per-series cap
(:data:`DEFAULT_HISTOGRAM_SAMPLE_CAP`). Beyond the cap the series keeps
a uniform reservoir (Algorithm R, seeded deterministically from the
family name and labels so identical runs keep identical reservoirs):
``count`` and ``sum`` stay exact forever, while percentiles become an
unbiased approximation over the reservoir. This bounds a 200-host
scrape-amplified run to ``cap`` floats per series instead of one float
per observation.

Label cardinality is capped per family: once ``max_series`` distinct
label combinations exist, further combinations collapse into a single
overflow series (labeled ``overflow="true"``) instead of growing without
bound — the standard production defense against label explosions.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..sim import percentile

LabelKey = Tuple[Tuple[str, str], ...]

OVERFLOW_LABEL = "overflow"

# Per-series raw-sample retention cap. Large enough that every
# percentile read in the repo's tests and figure benchmarks stays exact
# (their busiest series observe a few tens of thousands of samples),
# small enough to bound a scrape-amplified 200-host soak.
DEFAULT_HISTOGRAM_SAMPLE_CAP = 65536

# Exemplars retained per histogram series (most recent wins; a tiny,
# lazily allocated ring — zero cost for series that never see one).
HISTOGRAM_EXEMPLAR_CAP = 4


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value."""

    kind = "counter"
    __slots__ = ("labels", "value")

    def __init__(self, labels: Dict[str, str]):
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"labels": dict(self.labels), "value": self.value}


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"
    __slots__ = ("labels", "value")

    def __init__(self, labels: Dict[str, str]):
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta

    def snapshot(self) -> Dict[str, Any]:
        return {"labels": dict(self.labels), "value": self.value}


class Histogram:
    """Distribution of observed values; retains raw samples up to a cap.

    ``percentile`` uses the same nearest-rank definition as
    :func:`repro.sim.percentile`, so registry histograms and the
    ``analysis.stats`` recorders report identical numbers for identical
    samples. Empty histograms report ``nan`` rather than raising.

    Memory is bounded by ``max_samples``: below the cap every sample is
    retained and percentiles are exact; above it the series keeps a
    uniform reservoir (Algorithm R) — ``count`` and ``sum`` stay exact,
    percentiles are an approximation over the reservoir, and
    delta-based reads (``values`` / ``percentile(start=...)``) are only
    meaningful while the series is below the cap (``saturated`` tells
    you which regime you are in). The reservoir's RNG is seeded
    deterministically (from the family name + labels when created via
    :class:`MetricFamily`), so identical runs keep identical reservoirs.
    """

    kind = "histogram"
    __slots__ = ("labels", "max_samples", "_samples", "_sorted", "_count",
                 "_overflow_sum", "_seed", "_rand", "_exemplars")

    def __init__(self, labels: Dict[str, str],
                 max_samples: int = DEFAULT_HISTOGRAM_SAMPLE_CAP,
                 seed: int = 0):
        if max_samples < 1:
            raise ValueError(
                f"max_samples must be >= 1, got {max_samples!r}")
        self.labels = labels
        self.max_samples = max_samples
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None
        self._count = 0
        self._overflow_sum: Optional[float] = None
        self._seed = seed
        self._rand: Optional[random.Random] = None
        # Lazily allocated: [(value, trace_id, timestamp), ...] — the
        # Prometheus-exemplar surface linking tail samples to traces.
        self._exemplars: Optional[List[Tuple[float, str, float]]] = None

    def observe(self, value: float) -> None:
        count = self._count = self._count + 1
        if count <= self.max_samples:
            # Fast path: exact retention (the overwhelmingly common case).
            self._samples.append(value)
            self._sorted = None
            return
        if self._rand is None:
            # Saturating now: freeze the exact running sum and switch the
            # sample list over to reservoir maintenance.
            self._overflow_sum = math.fsum(self._samples)
            self._rand = random.Random(self._seed)
        self._overflow_sum += value
        slot = self._rand.randrange(count)
        if slot < self.max_samples:
            self._samples[slot] = value
            self._sorted = None

    def exemplar(self, value: float, trace_id: str,
                 timestamp: float) -> None:
        """Attach a trace exemplar to this series (bounded, newest kept).

        Exemplars ride alongside the distribution — they never enter
        ``count``/``sum``/percentiles or :meth:`snapshot`, so attaching
        them cannot perturb any digest or equivalence check.
        """
        if self._exemplars is None:
            self._exemplars = []
        self._exemplars.append((float(value), trace_id, float(timestamp)))
        if len(self._exemplars) > HISTOGRAM_EXEMPLAR_CAP:
            del self._exemplars[:len(self._exemplars) -
                                HISTOGRAM_EXEMPLAR_CAP]

    @property
    def exemplars(self) -> Tuple[Tuple[float, str, float], ...]:
        return tuple(self._exemplars) if self._exemplars else ()

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        if self._overflow_sum is not None:
            return self._overflow_sum
        return math.fsum(self._samples)

    @property
    def saturated(self) -> bool:
        """True once observations exceeded the cap (reservoir regime)."""
        return self._count > len(self._samples)

    @property
    def values(self) -> Tuple[float, ...]:
        """Retained samples in observation order (for delta-based
        readers); the full sample set only while not :attr:`saturated`."""
        return tuple(self._samples)

    def percentile(self, p: float, start: int = 0) -> float:
        """Nearest-rank percentile; ``start`` skips earlier samples so
        callers can measure deltas between checkpoints (exact only while
        the series is not :attr:`saturated`). ``nan`` if the window is
        empty."""
        if start:
            window = sorted(self._samples[start:])
        else:
            if self._sorted is None:
                self._sorted = sorted(self._samples)
            window = self._sorted
        if not window:
            return math.nan
        return percentile(window, p)

    def mean(self) -> float:
        if not self._count:
            return math.nan
        return self.sum / self._count

    def reset(self) -> None:
        self._samples.clear()
        self._sorted = None
        self._count = 0
        self._overflow_sum = None
        self._rand = None
        self._exemplars = None

    def snapshot(self) -> Dict[str, Any]:
        out = {"labels": dict(self.labels), "count": self.count,
               "sum": self.sum, "mean": self.mean()}
        for p in (50.0, 90.0, 99.0, 99.9):
            out[f"p{p:g}"] = self.percentile(p)
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All series of one named metric (one kind, many label combos)."""

    def __init__(self, name: str, kind: str, help: str = "",
                 max_series: int = 256,
                 sample_cap: int = DEFAULT_HISTOGRAM_SAMPLE_CAP):
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.max_series = max_series
        # Histogram families only: per-series raw-sample retention cap.
        self.sample_cap = sample_cap
        self._series: Dict[LabelKey, Any] = {}
        # Label combinations collapsed into the overflow series.
        self.dropped_series = 0
        # Bumped whenever the series set changes; lets scrapers cache
        # per-series bindings with an O(1) staleness check.
        self.version = 0

    def _new_series(self, key: LabelKey, labels: Dict[str, str]):
        if self.kind == "histogram":
            # Deterministic per-series reservoir seed: stable across runs
            # and processes (crc32, not hash()), distinct across series.
            seed = zlib.crc32(repr((self.name, key)).encode())
            return Histogram(labels, max_samples=self.sample_cap, seed=seed)
        return _KINDS[self.kind](labels)

    def labels(self, **labels: Any):
        """The series for one label combination (created on first use).

        Beyond ``max_series`` distinct combinations, new combinations
        share a single overflow series instead of growing the family.
        """
        key = _label_key(labels)
        series = self._series.get(key)
        if series is not None:
            return series
        if len(self._series) >= self.max_series:
            self.dropped_series += 1
            return self._overflow_series()
        series = self._new_series(key, {str(k): str(v)
                                        for k, v in sorted(labels.items())})
        self._series[key] = series
        self.version += 1
        return series

    def _overflow_series(self):
        key = _label_key({OVERFLOW_LABEL: "true"})
        series = self._series.get(key)
        if series is None:
            series = self._new_series(key, {OVERFLOW_LABEL: "true"})
            self._series[key] = series
            self.version += 1
        return series

    def remove(self, **labels: Any) -> bool:
        """Deregister one series; True if it existed."""
        if self._series.pop(_label_key(labels), None) is None:
            return False
        self.version += 1
        return True

    @property
    def series_count(self) -> int:
        return len(self._series)

    def series(self) -> List[Any]:
        return list(self._series.values())

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "help": self.help,
                "series": [s.snapshot() for s in self._series.values()]}


class MetricsRegistry:
    """Named metric families plus snapshot/aggregation readbacks.

    One registry normally spans one :class:`~repro.core.cell.Cell` (its
    clients and backends all record here); a module-level default exists
    for ad-hoc use. Families are created on first use and are kind-checked
    on re-registration.
    """

    def __init__(self, max_series_per_metric: int = 256,
                 histogram_sample_cap: int = DEFAULT_HISTOGRAM_SAMPLE_CAP):
        self.max_series_per_metric = max_series_per_metric
        self.histogram_sample_cap = histogram_sample_cap
        self._families: Dict[str, MetricFamily] = {}

    # -- registration --------------------------------------------------------

    def _family(self, name: str, kind: str, help: str,
                sample_cap: Optional[int] = None) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(
                name, kind, help, max_series=self.max_series_per_metric,
                sample_cap=sample_cap if sample_cap is not None
                else self.histogram_sample_cap)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"not {kind}")
        return family

    def counter(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, "gauge", help)

    def histogram(self, name: str, help: str = "",
                  sample_cap: Optional[int] = None) -> MetricFamily:
        return self._family(name, "histogram", help, sample_cap=sample_cap)

    def family(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def families(self) -> List[str]:
        return sorted(self._families)

    # -- readbacks -----------------------------------------------------------

    def _matching(self, name: str, labels: Dict[str, Any]) -> Iterable[Any]:
        family = self._families.get(name)
        if family is None:
            return []
        want = {str(k): str(v) for k, v in labels.items()}
        return [s for s in family.series()
                if all(s.labels.get(k) == v for k, v in want.items())]

    def value(self, name: str, **labels: Any) -> float:
        """Exact-series value (counters/gauges); ``nan`` if absent."""
        family = self._families.get(name)
        if family is None:
            return math.nan
        series = family._series.get(_label_key(labels))
        return series.value if series is not None else math.nan

    def total(self, name: str, **labels: Any) -> float:
        """Sum of counter/gauge values over series matching the label
        subset (histograms contribute their observation count)."""
        total = 0.0
        for series in self._matching(name, labels):
            total += series.count if series.kind == "histogram" \
                else series.value
        return total

    def histogram_series(self, name: str, **labels: Any) -> List[Histogram]:
        """All histogram series matching the label subset."""
        return [s for s in self._matching(name, labels)
                if s.kind == "histogram"]

    def merged_samples(self, name: str, **labels: Any) -> List[float]:
        """Concatenated raw samples across matching histogram series."""
        out: List[float] = []
        for series in self.histogram_series(name, **labels):
            out.extend(series.values)
        return out

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Point-in-time view of every family: the export surface."""
        return {name: family.snapshot()
                for name, family in sorted(self._families.items())}


_default_registry = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The module-level registry (for ad-hoc/standalone instrumentation)."""
    return _default_registry
