"""Synthetic end-to-end probers (the paper's continuous E2E probes).

A :class:`Prober` owns a dedicated client on its own host and issues a
steady round of SET / GET / (periodic) ERASE against a small set of
dedicated probe keys, through the *real* client path — quorum reads,
retries, backoff, quarantine — so its SLIs measure exactly what an
application client would experience. This is how quorum-masked lossy
replicas, quarantine flaps, and partitions become visible: per-replica
counters can look healthy while the client's vantage degrades.

Probe results land in three counter families (all labeled
``cell=/prober=/op=``):

* ``cliquemap_probe_ops_total{result=ok|error|corrupt}`` — availability
  SLI numerator/denominator. ``corrupt`` means the GET returned the
  wrong value (or a MISS) for a key a quorum-applied SET just wrote —
  a data-integrity failure, counted separately from unavailability.
* ``cliquemap_probe_latency_class_total{class=fast|slow}`` — latency
  SLI: an op is ``fast`` when it completes within the prober's
  per-op latency SLO threshold.
* ``cliquemap_probe_latency_seconds`` — the full latency distribution
  (histogram), for dashboards rather than alerting.

Probe keys are namespaced ``__probe__/<prober>/<n>`` so they never
collide with workload keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional

from ..core.errors import GetStatus


@dataclass
class ProberConfig:
    """Shape of one prober's traffic and its per-op latency threshold."""

    interval: float = 5e-3          # sim-seconds between probe rounds
    num_keys: int = 8               # dedicated probe keys, round-robined
    value_bytes: int = 64           # probe value payload size
    deadline: float = 2e-3          # per-op deadline (availability bound)
    latency_slo_seconds: float = 1.5e-3   # "fast" threshold for the SLI
    erase_every: int = 16           # every Nth round also exercises ERASE
    label: str = "prober-0"

    def validate(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"interval must be > 0, got {self.interval!r}")
        if self.num_keys < 1:
            raise ValueError(f"num_keys must be >= 1, got {self.num_keys!r}")
        if self.deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline!r}")
        if self.latency_slo_seconds <= 0:
            raise ValueError("latency_slo_seconds must be > 0, got "
                             f"{self.latency_slo_seconds!r}")
        if self.erase_every < 1:
            raise ValueError(
                f"erase_every must be >= 1, got {self.erase_every!r}")


class Prober:
    """One synthetic prober: a dedicated client plus its probe loop."""

    def __init__(self, cell, config: Optional[ProberConfig] = None,
                 client_kwargs: Optional[Dict[str, Any]] = None):
        self.cell = cell
        self.config = config or ProberConfig()
        self.config.validate()
        self.sim = cell.sim
        self.client = cell.make_client(**(client_kwargs or {}))
        self.rounds = 0
        self._running = False
        self._proc = None
        registry = cell.metrics
        base = dict(cell=cell.spec.name, prober=self.config.label)
        ops = registry.counter(
            "cliquemap_probe_ops_total",
            "Synthetic probe operations by outcome")
        latency_class = registry.counter(
            "cliquemap_probe_latency_class_total",
            "Probe ops classified against the per-op latency SLO")
        latency = registry.histogram(
            "cliquemap_probe_latency_seconds",
            "End-to-end probe op latency (simulated seconds)")
        self._m_ops = {
            (op, result): ops.labels(op=op, result=result, **base)
            for op in ("get", "set", "erase")
            for result in ("ok", "error", "corrupt")}
        self._m_class = {
            (op, speed): latency_class.labels(op=op, **{"class": speed},
                                              **base)
            for op in ("get", "set", "erase")
            for speed in ("fast", "slow")}
        self._m_latency = {op: latency.labels(op=op, **base)
                           for op in ("get", "set", "erase")}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the probe loop as a simulator process (idempotent)."""
        if self._running:
            return
        self._running = True
        self._proc = self.sim.process(
            self._loop(), name=f"prober:{self.config.label}")

    def stop(self) -> None:
        """Stop issuing new rounds (the in-flight round completes)."""
        self._running = False

    # -- probing -------------------------------------------------------------

    def _key(self, round_index: int) -> bytes:
        n = round_index % self.config.num_keys
        return f"__probe__/{self.config.label}/{n}".encode()

    def _value(self, round_index: int) -> bytes:
        stamp = f"probe:{self.config.label}:{round_index}:".encode()
        return stamp.ljust(self.config.value_bytes, b"x")

    def _record(self, op: str, result: str, latency: float) -> None:
        self._m_ops[(op, result)].inc()
        self._m_latency[op].observe(latency)
        speed = "fast" if latency <= self.config.latency_slo_seconds \
            else "slow"
        self._m_class[(op, speed)].inc()

    def _loop(self) -> Generator:
        yield from self.client.connect()
        while self._running:
            yield from self._round(self.rounds)
            self.rounds += 1
            yield self.sim.delay(self.config.interval)

    def _round(self, index: int) -> Generator:
        """One probe round: SET, then GET-and-verify, then maybe ERASE."""
        cfg = self.config
        key = self._key(index)
        value = self._value(index)

        set_res = yield from self.client.set(key, value,
                                             deadline=cfg.deadline)
        self._record("set", "ok" if set_res.ok else "error",
                     set_res.latency)

        get_res = yield from self.client.get(key, deadline=cfg.deadline)
        if get_res.status is GetStatus.ERROR:
            self._record("get", "error", get_res.latency)
        elif set_res.ok and (get_res.status is not GetStatus.HIT or
                             get_res.value != value):
            # A quorum-applied SET must be readable: a MISS or a wrong
            # value here is corruption/loss, not mere unavailability.
            self._record("get", "corrupt", get_res.latency)
        else:
            self._record("get", "ok", get_res.latency)

        if (index + 1) % cfg.erase_every == 0:
            erase_res = yield from self.client.erase(key,
                                                     deadline=cfg.deadline)
            self._record("erase", "ok" if erase_res.ok else "error",
                         erase_res.latency)

    # -- readbacks -----------------------------------------------------------

    def sli(self) -> Dict[str, float]:
        """Point-in-time SLIs from this prober's counters."""
        ok = sum(c.value for (op, r), c in self._m_ops.items() if r == "ok")
        bad = sum(c.value for (op, r), c in self._m_ops.items() if r != "ok")
        fast = sum(c.value for (op, s), c in self._m_class.items()
                   if s == "fast")
        slow = sum(c.value for (op, s), c in self._m_class.items()
                   if s == "slow")
        total = ok + bad
        classed = fast + slow
        return {
            "ops": total,
            "availability": ok / total if total else float("nan"),
            "latency_sli": fast / classed if classed else float("nan"),
        }
