"""Windowed SLOs with multi-window burn-rate alerting.

The standard SRE construction: an objective declares a *good-events*
counter and a *total-events* counter plus a target ratio (e.g. 99%
availability). The error budget is ``1 - target``; the **burn rate**
over a window is ``error_ratio / (1 - target)`` — burn 1.0 spends the
budget exactly at the sustainable pace, burn 10 spends it 10x too fast.

Alert rules pair a long and a short window: the long window supplies
confidence (enough events that the ratio is meaningful), the short
window supplies recency (the alert clears quickly once the system
recovers, and a long-ago blip cannot page you now). A rule fires only
when *both* windows exceed its burn factor.

The :class:`SloEngine` evaluates every objective against a
:class:`~repro.telemetry.timeseries.Scraper` on each scrape tick (it is
registered as a scraper observer), emitting sim-timestamped
:class:`AlertEvent` records on fire and resolve transitions and counting
``cliquemap_slo_alerts_total{cell,objective,severity}``.

All windows are **simulated seconds** — at this repo's sim scale a full
workload lasts single-digit seconds, so windows are fractions of a
second rather than the hours a wall-clock deployment would use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..telemetry import NULL_FLIGHT, tally
from ..telemetry.timeseries import Scraper

#: Below this many events in the long window the ratio is noise: a
#: single failed op out of two must not page.
MIN_EVENTS = 10.0


@dataclass(frozen=True)
class MetricTerm:
    """One counter selection: a name plus a label-subset filter."""

    name: str
    labels: Mapping[str, str] = field(default_factory=dict)
    fieldname: str = "value"

    def increase(self, scraper: Scraper, window: float, at: float) -> float:
        return scraper.increase(self.name, window, at, field=self.fieldname,
                                **dict(self.labels))


@dataclass(frozen=True)
class BurnWindow:
    """One multi-window burn-rate rule: fire when both windows burn hot."""

    long_window: float
    short_window: float
    factor: float            # burn-rate threshold, e.g. 14.4 or 6.0
    severity: str = "page"

    def validate(self) -> None:
        if not (0 < self.short_window <= self.long_window):
            raise ValueError(
                "need 0 < short_window <= long_window, got "
                f"{self.short_window!r} / {self.long_window!r}")
        if self.factor <= 0:
            raise ValueError(f"factor must be > 0, got {self.factor!r}")


@dataclass
class SloObjective:
    """A good/total ratio target for one cell, with its alert rules."""

    name: str                       # e.g. "availability"
    cell: str
    target: float                   # e.g. 0.99 -> 1% error budget
    good: MetricTerm
    total: MetricTerm
    windows: List[BurnWindow] = field(default_factory=list)

    def validate(self) -> None:
        if not (0.0 < self.target < 1.0):
            raise ValueError(
                f"target must be in (0, 1), got {self.target!r}")
        if not self.windows:
            raise ValueError(f"objective {self.name!r} has no alert rules")
        for w in self.windows:
            w.validate()

    def burn_rate(self, scraper: Scraper, window: float, at: float
                  ) -> Tuple[float, float]:
        """(burn rate, total events) over ``[at - window, at]``."""
        total = self.total.increase(scraper, window, at)
        if total <= 0:
            return 0.0, 0.0
        good = self.good.increase(scraper, window, at)
        error_ratio = max(0.0, 1.0 - good / total)
        return error_ratio / (1.0 - self.target), total


@dataclass
class AlertEvent:
    """One alert transition, stamped in simulated time."""

    at: float
    kind: str                # "fire" | "resolve"
    objective: str
    cell: str
    severity: str
    burn_long: float
    burn_short: float
    window: BurnWindow

    def to_dict(self) -> Dict[str, Any]:
        return {
            "at": self.at, "kind": self.kind, "objective": self.objective,
            "cell": self.cell, "severity": self.severity,
            "burn_long": self.burn_long, "burn_short": self.burn_short,
            "long_window": self.window.long_window,
            "short_window": self.window.short_window,
            "factor": self.window.factor,
        }


#: The stock objectives' targets: a 1% error budget for availability,
#: 10% for latency.
AVAILABILITY_TARGET = 0.99
LATENCY_TARGET = 0.90
#: Their one page rule: fire when both a 0.4 s and a 0.1 s window burn
#: budget twice as fast as sustainable (sim-scale windows, see the module
#: docstring).
PAGE_RULE = BurnWindow(0.4, 0.1, 2.0, "page")


def default_objectives(cell_name: str) -> List[SloObjective]:
    """The plane's stock objectives over the prober counter families.

    Availability: probe ops with ``result="ok"`` over all probe ops.
    Latency: probe ops classified ``fast`` over all classified ops.
    """
    probe = "cliquemap_probe_ops_total"
    latency = "cliquemap_probe_latency_class_total"
    return [
        SloObjective(
            name="availability", cell=cell_name,
            target=AVAILABILITY_TARGET,
            good=MetricTerm(probe, {"cell": cell_name, "result": "ok"}),
            total=MetricTerm(probe, {"cell": cell_name}),
            windows=[PAGE_RULE]),
        SloObjective(
            name="latency", cell=cell_name, target=LATENCY_TARGET,
            good=MetricTerm(latency, {"cell": cell_name, "class": "fast"}),
            total=MetricTerm(latency, {"cell": cell_name}),
            windows=[PAGE_RULE]),
    ]


class SloEngine:
    """Evaluates objectives on every scrape tick; dedupes alert state."""

    def __init__(self, scraper: Scraper, objectives: List[SloObjective],
                 registry=None):
        for objective in objectives:
            objective.validate()
        self.scraper = scraper
        self.objectives = objectives
        self.events: List[AlertEvent] = []
        self.active: Dict[Tuple[str, str, str], AlertEvent] = {}
        self.evaluations = 0
        # The cell's flight recorder (plane attaches it); alert fire /
        # resolve transitions land in the postmortem event stream.
        self.flight = NULL_FLIGHT
        self._fired = tally()
        if registry is not None:
            registry.adopt("cliquemap_slo_alerts_total",
                           "SLO burn-rate alerts fired", self._fired,
                           ("objective", "cell", "severity"))

    def attach(self) -> "SloEngine":
        """Register as a scraper observer (evaluate on every tick)."""
        self.scraper.add_observer(self.evaluate)
        return self

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, t: float, scraper: Optional[Scraper] = None) -> None:
        scraper = scraper or self.scraper
        self.evaluations += 1
        for objective in self.objectives:
            for window in objective.windows:
                self._evaluate_rule(t, scraper, objective, window)

    def _evaluate_rule(self, t: float, scraper: Scraper,
                       objective: SloObjective, window: BurnWindow) -> None:
        burn_long, events_long = objective.burn_rate(
            scraper, window.long_window, t)
        burn_short, _events_short = objective.burn_rate(
            scraper, window.short_window, t)
        key = (objective.name, objective.cell, window.severity)
        firing = (events_long >= MIN_EVENTS and
                  burn_long >= window.factor and
                  burn_short >= window.factor)
        was_active = key in self.active
        if firing and not was_active:
            event = AlertEvent(t, "fire", objective.name, objective.cell,
                               window.severity, burn_long, burn_short,
                               window)
            self.active[key] = event
            self.events.append(event)
            self._fired[key] += 1
            if self.flight:
                self.flight.record(
                    "alert", origin=f"slo/{objective.cell}",
                    event="fire", objective=objective.name,
                    severity=window.severity, burn_long=burn_long,
                    burn_short=burn_short)
        elif was_active and not firing:
            del self.active[key]
            self.events.append(
                AlertEvent(t, "resolve", objective.name, objective.cell,
                           window.severity, burn_long, burn_short, window))
            if self.flight:
                self.flight.record(
                    "alert", origin=f"slo/{objective.cell}",
                    event="resolve", objective=objective.name,
                    severity=window.severity, burn_long=burn_long,
                    burn_short=burn_short)

    # -- readbacks -----------------------------------------------------------

    def fired(self, objective: Optional[str] = None,
              cell: Optional[str] = None) -> List[AlertEvent]:
        """All "fire" transitions, optionally filtered."""
        return [e for e in self.events
                if e.kind == "fire"
                and (objective is None or e.objective == objective)
                and (cell is None or e.cell == cell)]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "evaluations": self.evaluations,
            "active": sorted("/".join(k) for k in self.active),
            "events": [e.to_dict() for e in self.events],
        }
