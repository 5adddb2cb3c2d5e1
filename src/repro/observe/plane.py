"""The observability plane assembly: scraper + probers + SLO engine.

One :class:`ObservabilityPlane` serves one
:class:`~repro.core.cell.Cell`. It wires a
:class:`~repro.telemetry.timeseries.Scraper` onto the cell's simulator
clock (a tap — no scheduled events, so enabling the plane's scraping
leaves the run's event sequence untouched), starts per-cell synthetic
:class:`~repro.observe.prober.Prober` loops, and attaches a
:class:`~repro.observe.slo.SloEngine` that evaluates burn-rate rules on
every scrape tick. Exports — ``timeseries.json``, Chrome-trace
``trace.json``, Prometheus text — hang off the plane so the ``observe``
CLI and CI smoke jobs have one surface to call.

Normally reached through ``cell.observe(config)`` rather than built
directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..telemetry.export import write_chrome_trace
from ..telemetry.timeseries import Scraper
from .prober import Prober
from .slo import SloEngine, default_objectives


#: Finished span trees the cell's tracer keeps while a plane runs —
#: enough for a useful trace export.
TRACE_RETAINED = 512
#: Simulated seconds between scrapes.
SCRAPE_INTERVAL = 1e-3


@dataclass
class ObserveConfig:
    """Everything the plane needs beyond the cell itself."""

    probers: int = 1                    # synthetic probers to run


class ObservabilityPlane:
    """Scraper + probers + SLO engine for one cell."""

    def __init__(self, cell, config: Optional[ObserveConfig] = None):
        self.cell = cell
        self.config = config or ObserveConfig()
        cfg = self.config
        self.scraper = Scraper(cell.metrics, interval=SCRAPE_INTERVAL)
        self.probers: List[Prober] = []
        for i in range(cfg.probers):
            self.probers.append(Prober(cell, f"prober-{i}"))
        self.engine = SloEngine(self.scraper,
                                default_objectives(cell.spec.name),
                                registry=cell.metrics)
        # Alert transitions join the cell's flight-recorder stream (a
        # no-op NULL_FLIGHT when CellSpec.flight_recorder is off).
        self.engine.flight = cell.flight
        # Attached lazily by autoscale(); None keeps the control loop
        # entirely out of plain observability runs.
        self.autoscaler = None
        self.started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ObservabilityPlane":
        """Install the scrape tap, attach the engine, start probers."""
        if self.started:
            return self
        self.started = True
        self.scraper.install(self.cell.sim)
        self.engine.attach()
        if self.cell.tracer.max_retained < TRACE_RETAINED:
            self.cell.tracer.max_retained = TRACE_RETAINED
        for prober in self.probers:
            prober.start()
        return self

    def stop(self) -> None:
        """Stop probers and detach the scrape tap (idempotent)."""
        if not self.started:
            return
        self.started = False
        if self.autoscaler is not None:
            self.autoscaler.stop()
        for prober in self.probers:
            prober.stop()
        self.scraper.uninstall()

    def autoscale(self, config=None):
        """Attach (and start) the SLO-driven autoscaler — the closed
        loop from this plane's alerts and load series to online cell
        resize. Idempotent; returns the
        :class:`~repro.observe.autoscale.Autoscaler`."""
        if self.autoscaler is None:
            from .autoscale import Autoscaler
            self.autoscaler = Autoscaler(self, config).start()
        return self.autoscaler

    # -- readbacks / exports -------------------------------------------------

    def sli_summary(self) -> Dict[str, Any]:
        """Per-prober SLIs plus alert totals, for tables and reports."""
        probers = {p.label: p.sli() for p in self.probers}
        return {
            "cell": self.cell.spec.name,
            "probers": probers,
            "alerts_fired": len(self.engine.fired()),
            "alerts_active": len(self.engine.active),
            "scrapes": self.scraper.scrapes,
        }

    def write_timeseries(self, path: str) -> int:
        """Write the scraped series (+ alert events) as JSON; returns
        the series count."""
        doc = self.scraper.to_dict()
        doc["alerts"] = self.engine.to_dict()
        doc["sli"] = self.sli_summary()
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return len(doc["series"])

    def write_trace(self, path: str) -> int:
        """Write retained span trees as Chrome-trace JSON; returns the
        event count."""
        return write_chrome_trace(path, self.cell.tracer.finished,
                                  process_name=self.cell.spec.name)
