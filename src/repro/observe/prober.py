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

from typing import Dict, Generator

from ..core.errors import GetStatus
from ..telemetry import tally

NUM_KEYS = 8                     # dedicated probe keys, round-robined
VALUE_BYTES = 64                 # probe value payload size
DEADLINE = 2e-3                  # per-op deadline (availability bound)
LATENCY_SLO_SECONDS = 1.5e-3     # "fast" threshold for the latency SLI
ERASE_EVERY = 16                 # every Nth round also exercises ERASE
INTERVAL = 5e-3                  # sim-seconds between probe rounds


class Prober:
    """One synthetic prober: a dedicated client plus its probe loop."""

    def __init__(self, cell, label: str = "prober-0"):
        self.cell = cell
        self.label = label
        self.sim = cell.sim
        self.client = cell.make_client()
        self.rounds = 0
        self._running = False
        self._proc = None
        registry = cell.metrics
        base = dict(cell=cell.spec.name, prober=label)
        ops = ("get", "set", "erase")
        self._results = registry.adopt(
            "cliquemap_probe_ops_total",
            "Synthetic probe operations by outcome",
            tally(*((op, result) for op in ops
                    for result in ("ok", "error", "corrupt"))),
            ("op", "result"), **base)
        self._classes = registry.adopt(
            "cliquemap_probe_latency_class_total",
            "Probe ops classified against the per-op latency SLO",
            tally(*((op, speed) for op in ops for speed in ("fast", "slow"))),
            ("op", "class"), **base)
        latency = registry.histogram(
            "cliquemap_probe_latency_seconds",
            "End-to-end probe op latency (simulated seconds)")
        self._m_latency = {op: latency.labels(op=op, **base)
                           for op in ("get", "set", "erase")}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the probe loop as a simulator process (idempotent)."""
        if self._running:
            return
        self._running = True
        self._proc = self.sim.process(
            self._loop(), name=f"prober:{self.label}")

    def stop(self) -> None:
        """Stop issuing new rounds (the in-flight round completes)."""
        self._running = False

    # -- probing -------------------------------------------------------------

    def _key(self, round_index: int) -> bytes:
        n = round_index % NUM_KEYS
        return f"__probe__/{self.label}/{n}".encode()

    def _value(self, round_index: int) -> bytes:
        stamp = f"probe:{self.label}:{round_index}:".encode()
        return stamp.ljust(VALUE_BYTES, b"x")

    def _record(self, op: str, result: str, latency: float) -> None:
        self._results[op, result] += 1
        self._m_latency[op].observe(latency)
        speed = "fast" if latency <= LATENCY_SLO_SECONDS else "slow"
        self._classes[op, speed] += 1

    def _loop(self) -> Generator:
        yield from self.client.connect()
        while self._running:
            yield from self._round(self.rounds)
            self.rounds += 1
            yield self.sim.delay(INTERVAL)

    def _round(self, index: int) -> Generator:
        """One probe round: SET, then GET-and-verify, then maybe ERASE."""
        key = self._key(index)
        value = self._value(index)

        set_res = yield from self.client.set(key, value,
                                             deadline=DEADLINE)
        self._record("set", "ok" if set_res.ok else "error",
                     set_res.latency)

        get_res = yield from self.client.get(key, deadline=DEADLINE)
        if get_res.status is GetStatus.ERROR:
            self._record("get", "error", get_res.latency)
        elif set_res.ok and (get_res.status is not GetStatus.HIT or
                             get_res.value != value):
            # A quorum-applied SET must be readable: a MISS or a wrong
            # value here is corruption/loss, not mere unavailability.
            self._record("get", "corrupt", get_res.latency)
        else:
            self._record("get", "ok", get_res.latency)

        if (index + 1) % ERASE_EVERY == 0:
            erase_res = yield from self.client.erase(key,
                                                     deadline=DEADLINE)
            self._record("erase", "ok" if erase_res.ok else "error",
                         erase_res.latency)

    # -- readbacks -----------------------------------------------------------

    def sli(self) -> Dict[str, float]:
        """Point-in-time SLIs from this prober's counters."""
        ok = float(sum(n for (op, r), n in self._results.items()
                       if r == "ok"))
        total = float(sum(self._results.values()))
        fast = float(sum(n for (op, s), n in self._classes.items()
                         if s == "fast"))
        classed = float(sum(self._classes.values()))
        return {
            "ops": total,
            "availability": ok / total if total else float("nan"),
            "latency_sli": fast / classed if classed else float("nan"),
        }
