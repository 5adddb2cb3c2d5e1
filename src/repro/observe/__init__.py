"""Continuous observability plane: probers, SLOs, burn-rate alerts.

The paper's productionization story rests on continuous end-to-end
probers, per-cell SLIs, and burn-rate alerting that surface gray
failures and regressions before users do. This package reproduces that
plane on top of :mod:`repro.telemetry`:

* :mod:`repro.observe.prober` — synthetic per-cell probers issuing
  dedicated-key GET/SET/erase traffic through the real client path.
* :mod:`repro.observe.slo` — windowed SLO objectives with multi-window
  burn-rate alert rules evaluated over scraped time series.
* :mod:`repro.observe.plane` — the assembly: scraper + probers + SLO
  engine, attached to a :class:`~repro.core.cell.Cell` via
  ``cell.observe()``.
* :mod:`repro.observe.autoscale` — the SLO-driven autoscaler closing
  the loop from burn-rate alerts and per-backend load series to online
  cell resize (``plane.autoscale()``).
* :mod:`repro.observe.postmortem` — postmortem bundles freezing the
  flight-recorder tail, the trailing time series, and the slow/error
  span trees to disk when a soak trips an invariant or an alert fires.
"""

from .autoscale import Autoscaler, AutoscalerConfig, AutoscalerStats
from .plane import ObservabilityPlane, ObserveConfig
from .postmortem import find_bundles, select_traces, write_postmortem_bundle
from .prober import Prober
from .slo import (AlertEvent, BurnWindow, MetricTerm, SloEngine,
                  SloObjective, default_objectives)

__all__ = [
    "Autoscaler", "AutoscalerConfig", "AutoscalerStats",
    "ObservabilityPlane", "ObserveConfig",
    "Prober",
    "AlertEvent", "BurnWindow", "MetricTerm", "SloEngine", "SloObjective",
    "default_objectives",
    "write_postmortem_bundle", "find_bundles", "select_traces",
]
