"""Time-series scraping of a :class:`MetricsRegistry` over simulated time.

PR 1's registry is a *point-in-time* surface: you can snapshot it at the
end of a run, but you cannot ask "what was the error rate between t=2.0
and t=2.5?" — which is exactly the question SLO burn-rate alerting (and
the paper's production monitoring) needs answered. This module adds the
missing dimension: a :class:`Scraper` samples every family of a registry
at a fixed simulated-time interval into ring-buffered, labeled
:class:`TimeSeries`, with Prometheus-style ``increase``/``rate`` reads
over arbitrary windows and label subsets.

The scraper is driven by a :meth:`Simulator.add_tap
<repro.sim.core.Simulator.add_tap>` clock tap, *not* by a scheduled
process: taps fire synchronously as the run loop advances time and
consume no scheduling sequence numbers, so a scraped run executes an
event sequence identical to an unscraped run of the same seed (the
seed-for-seed parity guarantee the observability plane is built on).

Sampled fields per series:

* counters / gauges — ``value``
* histograms — ``count`` (exact and O(1) to read; a ``sum`` would cost
  a full-reservoir ``fsum`` per scrape)

Retention is bounded: each series ring-buffers at most
``retention_points`` samples — size it at or above your longest alert
window, since ``increase`` treats a missing baseline as zero (counter
semantics: counters start at zero).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry

Point = Tuple[float, float]


class TimeSeries:
    """One scraped stream: ``(metric name, label set, field)`` over time.

    Points are ``(sim_time, value)`` pairs in strictly increasing time
    order, ring-buffered to the scraper's retention. A parallel deque of
    timestamps is maintained on append/eviction so :meth:`value_at` can
    bisect directly — rebuilding a timestamp list per read would make
    ``increase``/``rate`` O(n) and SLO evaluation quadratic over a run.
    """

    __slots__ = ("name", "field", "labels", "kind", "points", "_times")

    def __init__(self, name: str, field: str, labels: Dict[str, str],
                 kind: str, maxlen: Optional[int]):
        self.name = name
        self.field = field
        self.labels = labels
        self.kind = kind
        self.points: Deque[Point] = deque(maxlen=maxlen)
        self._times: Deque[float] = deque(maxlen=maxlen)

    def append(self, t: float, value: float) -> None:
        # Both deques share one maxlen, so ring-buffer eviction keeps
        # them aligned without explicit bookkeeping.
        self.points.append((t, value))
        self._times.append(t)

    def latest(self) -> Optional[Point]:
        return self.points[-1] if self.points else None

    def value_at(self, t: float) -> Optional[float]:
        """Step-function read: the last sample at or before ``t``."""
        i = bisect_right(self._times, t)
        if i == 0:
            return None
        return self.points[i - 1][1]

    def increase(self, window: float, at: Optional[float] = None) -> float:
        """Counter increase over ``[at - window, at]``.

        A missing baseline reads as 0.0 (counters start at zero); a
        missing endpoint reads as the latest sample. Negative deltas
        (after a registry reset) clamp to zero.
        """
        if not self.points:
            return 0.0
        end_t = self.points[-1][0] if at is None else at
        end = self.value_at(end_t)
        if end is None:
            return 0.0
        start = self.value_at(end_t - window)
        if start is None:
            start = 0.0
        return max(0.0, end - start)

    def rate(self, window: float, at: Optional[float] = None) -> float:
        """Per-second rate of increase over the window."""
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window!r}")
        return self.increase(window, at) / window

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "field": self.field,
            "labels": dict(self.labels),
            "kind": self.kind,
            "points": [[t, v] for t, v in self.points],
        }

    def __repr__(self) -> str:
        return (f"TimeSeries({self.name}.{self.field}, {self.labels}, "
                f"{len(self.points)} pts)")


class Scraper:
    """Samples every family of a registry at a fixed sim-time interval.

    Install on a simulator with :meth:`install` (clock tap — see module
    docstring for why that keeps runs seed-for-seed identical), or drive
    manually with :meth:`scrape` from any harness. Observers registered
    via :meth:`add_observer` run after each scrape with
    ``(tick_time, scraper)`` — this is the hook the SLO engine evaluates
    from.
    """

    def __init__(self, registry: MetricsRegistry,
                 interval: float = 1e-3,
                 retention_points: int = 4096):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval!r}")
        if retention_points < 2:
            raise ValueError("retention_points must be >= 2 (increase "
                             "needs a baseline and an endpoint)")
        self.registry = registry
        self.interval = interval
        self.retention_points = retention_points
        self.scrapes = 0
        self.last_scrape_at: Optional[float] = None
        self._series: Dict[Tuple[str, Tuple[Tuple[str, str], ...], str],
                           TimeSeries] = {}
        # Per-family (version, [(series, stream)]) bindings:
        # resolving a stream costs a sorted-tuple dict key, so the scrape
        # hot loop reuses bindings until the family's series set changes.
        self._bound: Dict[str, Tuple[int, list]] = {}
        self._observers: List[Callable[[float, "Scraper"], Any]] = []
        self._sim = None
        self._tap = None

    # -- collection ----------------------------------------------------------

    def _stream(self, name: str, labels: Dict[str, str], field: str,
                kind: str) -> TimeSeries:
        key = (name, tuple(sorted(labels.items())), field)
        ts = self._series.get(key)
        if ts is None:
            ts = TimeSeries(name, field, labels, kind,
                            maxlen=self.retention_points)
            self._series[key] = ts
        return ts

    def _bind(self, name: str, family) -> list:
        field = "count" if family.kind == "histogram" else "value"
        return [(s, self._stream(name, s.labels, field, family.kind))
                for s in family.series()]

    def scrape(self, t: float) -> None:
        """Sample every series of every family at sim-time ``t``."""
        self.scrapes += 1
        self.last_scrape_at = t
        for name in self.registry.families():
            family = self.registry.family(name)
            cached = self._bound.get(name)
            if cached is None or cached[0] != family.version:
                cached = (family.version, self._bind(name, family))
                self._bound[name] = cached
            if family.kind == "histogram":
                for s, count_ts in cached[1]:
                    count_ts.append(t, float(s.count))
            else:
                for s, value_ts in cached[1]:
                    value_ts.append(t, s.value)
        for observer in self._observers:
            observer(t, self)

    def add_observer(self, fn: Callable[[float, "Scraper"], Any]) -> None:
        self._observers.append(fn)

    # -- simulator wiring ----------------------------------------------------

    def install(self, sim, first_at: Optional[float] = None) -> None:
        """Attach to a simulator via a clock tap (idempotent per sim)."""
        if self._tap is not None:
            raise RuntimeError("scraper already installed")
        self._sim = sim
        self._tap = sim.add_tap(self.interval, self.scrape,
                                first_at=first_at)

    def uninstall(self) -> None:
        if self._tap is not None:
            self._sim.remove_tap(self._tap)
            self._tap = None
            self._sim = None

    # -- readbacks -----------------------------------------------------------

    def series(self, name: Optional[str] = None, field: Optional[str] = None,
               **labels: Any) -> List[TimeSeries]:
        """All series matching the name/field/label-subset filter."""
        want = {str(k): str(v) for k, v in labels.items()}
        out = []
        for ts in self._series.values():
            if name is not None and ts.name != name:
                continue
            if field is not None and ts.field != field:
                continue
            if any(ts.labels.get(k) != v for k, v in want.items()):
                continue
            out.append(ts)
        return out

    def increase(self, name: str, window: float, at: Optional[float] = None,
                 field: str = "value", **labels: Any) -> float:
        """Summed counter increase across all matching series."""
        return sum(ts.increase(window, at)
                   for ts in self.series(name, field, **labels))

    def rate(self, name: str, window: float, at: Optional[float] = None,
             field: str = "value", **labels: Any) -> float:
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window!r}")
        return self.increase(name, window, at, field, **labels) / window

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able export: the ``timeseries.json`` surface."""
        return {
            "interval": self.interval,
            "scrapes": self.scrapes,
            "last_scrape_at": self.last_scrape_at,
            "series": [ts.to_dict() for ts in self._series.values()],
        }
