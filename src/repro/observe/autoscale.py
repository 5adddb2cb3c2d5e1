"""SLO-driven autoscaling: the closed loop over elastic cells.

The :class:`Autoscaler` consumes two signals from a cell's
:class:`~repro.observe.ObservabilityPlane` — active SLO burn-rate alerts
(the engine's deduped ``active`` state) and the per-backend request-rate
series (``cliquemap_backend_rpcs_total`` scraped by the plane's tap) —
and drives the cell's :class:`~repro.core.resize.ResizeController`:

* **scale out** when an availability/latency burn alert is active or the
  mean per-backend RPC rate exceeds the high watermark;
* **scale in** only after ``HYSTERESIS_ROUNDS`` consecutive evaluations
  below the low watermark with no alert active — a single quiet window
  must not trigger a shrink that the next burst immediately reverses;
* **cooldown** between actions bounds the control loop's oscillation
  frequency regardless of signal noise.

Evaluations while a resize is already in flight (this controller's or
anyone else's) are recorded as ``blocked`` and skipped: the resize
controller itself serializes on the cell's topology lock, so the
autoscaler never queues a second resize behind an active one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from ..core.errors import CliqueMapError
from ..telemetry import tally

#: Shards one grow or shrink action adds or retires.
RESIZE_STEP = 1
#: Objectives whose active alerts force a scale-out.
ALERT_OBJECTIVES = ("availability", "latency")
#: Sim-seconds between evaluations, and the lookback of the rate estimate.
EVALUATE_INTERVAL = 0.05
LOAD_WINDOW = 0.1
#: Consecutive low rounds before a shrink.
HYSTERESIS_ROUNDS = 3


@dataclass
class AutoscalerConfig:
    """Control-loop shape and watermarks."""

    # Mean per-serving-backend RPC rate watermarks (ops/sim-second).
    scale_out_rps: float = 30_000.0
    scale_in_rps: float = 5_000.0
    min_shards: int = 3
    max_shards: int = 16
    cooldown: float = 0.3             # min gap between resize actions

    def __post_init__(self) -> None:
        if self.min_shards < 1 or self.max_shards < self.min_shards:
            raise CliqueMapError(
                f"need 1 <= min_shards <= max_shards, got "
                f"{self.min_shards!r}/{self.max_shards!r}")
        if self.scale_in_rps >= self.scale_out_rps:
            raise CliqueMapError(
                "scale_in_rps must be below scale_out_rps "
                f"({self.scale_in_rps!r} >= {self.scale_out_rps!r})")


@dataclass
class AutoscalerStats:
    evaluations: int = 0
    grows: int = 0
    shrinks: int = 0
    blocked: int = 0


class Autoscaler:
    """Closes the loop from the observability plane to cell resize."""

    def __init__(self, plane, config: Optional[AutoscalerConfig] = None):
        self.plane = plane
        self.cell = plane.cell
        self.sim = plane.cell.sim
        self.config = config or AutoscalerConfig()
        # (at, action, reason, shards) tuples; tests and reports read it.
        self.decisions: List[dict] = []
        # Evaluations by action: every evaluation records one decision,
        # so this tally is also what ``stats`` counts.
        self._actions = self.cell.metrics.adopt(
            "cliquemap_autoscaler_decisions_total",
            "Autoscaler evaluation outcomes by action", tally(), ("action",))
        self._low_rounds = 0
        self._last_action_at: Optional[float] = None
        self._proc = None
        self._stopped = False

    @property
    def stats(self) -> AutoscalerStats:
        """Built per read; every field is derived from the tally."""
        actions = self._actions
        return AutoscalerStats(evaluations=sum(actions.values()),
                               grows=actions["grow"],
                               shrinks=actions["shrink"],
                               blocked=actions["blocked"])

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Autoscaler":
        if self._proc is None or not self._proc.is_alive:
            self._stopped = False
            self._proc = self.sim.process(self._loop(), name="autoscaler")
            self._proc.defused = True
        return self

    def stop(self) -> None:
        self._stopped = True
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt()
        self._proc = None

    # -- the control loop ----------------------------------------------------

    def _loop(self) -> Generator:
        while not self._stopped:
            yield self.sim.delay(EVALUATE_INTERVAL)
            yield from self.evaluate_once()

    def evaluate_once(self) -> Generator:
        """One evaluation round (public so tests can step the loop)."""
        cfg = self.config
        now = self.sim.now
        serving = self.cell.config_store.peek(
            self.cell.spec.name).shard_tasks
        rps = self.plane.scraper.rate(
            "cliquemap_backend_rpcs_total", LOAD_WINDOW, now) \
            / max(1, len(serving))
        alerting = any(key[0] in ALERT_OBJECTIVES
                       for key in self.plane.engine.active)

        if self.cell.resize.active or self.cell.topology_lock.count:
            self._record(now, "blocked", "resize-or-maintenance-active",
                         len(serving), rps)
            return

        in_cooldown = (self._last_action_at is not None and
                       now - self._last_action_at < cfg.cooldown)
        wants_out = alerting or rps > cfg.scale_out_rps
        if wants_out:
            self._low_rounds = 0
            if len(serving) >= cfg.max_shards:
                self._record(now, "hold", "at-max-shards", len(serving), rps)
                return
            if in_cooldown:
                self._record(now, "hold", "cooldown", len(serving), rps)
                return
            reason = "slo-burn-alert" if alerting else "load-high"
            self._record(now, "grow", reason, len(serving), rps)
            self._last_action_at = now
            yield from self.cell.grow(RESIZE_STEP)
            return

        if rps < cfg.scale_in_rps:
            self._low_rounds += 1
            if self._low_rounds < HYSTERESIS_ROUNDS:
                self._record(now, "hold", "hysteresis", len(serving), rps)
                return
            if len(serving) - RESIZE_STEP < cfg.min_shards or \
                    len(serving) - RESIZE_STEP < \
                    self.cell.spec.mode.replicas:
                self._record(now, "hold", "at-min-shards", len(serving), rps)
                return
            if in_cooldown:
                self._record(now, "hold", "cooldown", len(serving), rps)
                return
            self._low_rounds = 0
            self._record(now, "shrink", "load-low", len(serving), rps)
            self._last_action_at = now
            yield from self.cell.shrink(count=RESIZE_STEP)
            return

        self._low_rounds = 0
        self._record(now, "hold", "steady", len(serving), rps)

    def _record(self, at: float, action: str, reason: str,
                shards: int, rps: float) -> None:
        self._actions[action] += 1
        self.decisions.append({"at": at, "action": action, "reason": reason,
                               "shards": shards, "per_backend_rps": rps})
