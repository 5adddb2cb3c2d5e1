"""Datacenter fabric: hosts wired together with propagation + queueing.

The fabric owns host creation and message delivery. Delivery of a payload
from host A to host B is modeled as::

    serialize through A.egress  ->  propagation delay (+jitter)
        ->  serialize through B.ingress

which captures the three effects the paper's controlled experiments rely
on: sender bottlenecks, receiver incast, and base round-trip latency. The
core fabric is assumed non-blocking (as in a full-bisection CLOS), so
contention only occurs at host NICs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Optional

from ..sim import Process, RandomStream, Simulator
from ..telemetry import NULL_SPAN
from .host import Host, HostConfig
from .nic import MtuConfig, Nic, gbps


class NetworkDropError(Exception):
    """Delivery dropped (partition or loss); detected by timeout."""

    def __init__(self, src: str, dst: str, reason: str = "partition"):
        super().__init__(f"packets from {src} to {dst} are being dropped "
                         f"({reason})")
        self.src = src
        self.dst = dst
        self.reason = reason


@dataclass(frozen=True)
class LinkFault:
    """A gray-failure model applied to deliveries on a link or host.

    Unlike a partition (binary, total) a gray fault degrades: a fraction
    of packets are lost, a fraction arrive corrupted, and/or propagation
    is slowed by a multiplier (an overloaded or mis-negotiated link).
    Losses behave like partitions for the affected delivery — the sender
    burns the retransmit-timeout delay and raises
    :class:`NetworkDropError`. Corruption is surfaced to RMA callers as
    a flag on the delivery (see :meth:`Fabric.deliver`), which transports
    translate into flipped payload bytes for the client's checksum
    validation to catch; RPC payloads are carried by a transport with
    its own integrity layer and are not corrupted.
    """

    loss_probability: float = 0.0
    corrupt_probability: float = 0.0
    latency_multiplier: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1], "
                f"got {self.loss_probability}")
        if not 0.0 <= self.corrupt_probability <= 1.0:
            raise ValueError(
                f"corrupt_probability must be in [0, 1], "
                f"got {self.corrupt_probability}")
        if self.latency_multiplier < 1.0:
            raise ValueError(
                f"latency_multiplier must be >= 1, "
                f"got {self.latency_multiplier}")

    @property
    def degraded(self) -> bool:
        return (self.loss_probability > 0 or self.corrupt_probability > 0
                or self.latency_multiplier != 1.0)

    def combine(self, other: "LinkFault") -> "LinkFault":
        """Stack two faults: independent losses/corruption, serial slowdown."""
        return LinkFault(
            loss_probability=1.0 - (1.0 - self.loss_probability) *
            (1.0 - other.loss_probability),
            corrupt_probability=1.0 - (1.0 - self.corrupt_probability) *
            (1.0 - other.corrupt_probability),
            latency_multiplier=self.latency_multiplier *
            other.latency_multiplier)


@dataclass
class FabricConfig:
    """Fabric-wide parameters."""

    host_rate_bytes_per_sec: float = gbps(50.0)   # 50 Gbps sustained (§7.2.4)
    one_way_delay: float = 4e-6                   # propagation + switching
    delay_jitter: float = 0.5e-6                  # uniform jitter bound
    # Cross-zone (WAN) one-way delay between datacenters; RMA is not
    # applicable across the WAN — only RPC traffic crosses zones.
    inter_zone_delay: float = 15e-3
    # How long a sender waits before concluding its packets are being
    # dropped (retransmission timeout stand-in).
    partition_detect_delay: float = 150e-6
    mtu: MtuConfig = field(default_factory=MtuConfig)
    seed: int = 1


class CrossShardLink:
    """The WAN link between two shards of a sharded simulation.

    When a federation is split one-zone-per-shard
    (:mod:`repro.core.parallelfed`), cross-zone traffic no longer rides a
    shared :class:`Fabric` — each side has its own fabric — so this
    adapter models the inter-datacenter hop instead: a message sent at
    ``t`` arrives at ``t + min_latency (+ jitter)``. ``min_latency`` is
    the latency the fabric itself would charge a cross-zone delivery
    (:attr:`FabricConfig.inter_zone_delay`) and doubles as the
    conservative lookahead the shard coordinator synchronizes on — the
    guarantee that no message can arrive sooner than ``min_latency``
    after it was sent is exactly what lets every shard run
    ``min_latency`` ahead of its neighbours.

    Arrival times are deterministic in (seed, src, dst, message index):
    jitter comes from the link's own seeded stream, never a shard's
    fabric stream, so they are identical whether the shards run
    sequentially in one process or in parallel workers.
    """

    def __init__(self, src_zone: str, dst_zone: str,
                 min_latency: float, jitter: float = 0.0, seed: int = 1):
        if min_latency <= 0:
            raise ValueError(
                f"cross-shard min_latency must be > 0 (it is the "
                f"conservative lookahead), got {min_latency!r}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter!r}")
        self.src_zone = src_zone
        self.dst_zone = dst_zone
        self.min_latency = min_latency
        self.jitter = jitter
        self._rand = RandomStream(seed, f"wan:{src_zone}->{dst_zone}")
        self.messages = 0

    @classmethod
    def from_config(cls, config: FabricConfig, src_zone: str,
                    dst_zone: str) -> "CrossShardLink":
        """The link a shared-fabric federation would have charged: WAN
        one-way delay plus the fabric's uniform jitter bound."""
        return cls(src_zone, dst_zone,
                   min_latency=config.inter_zone_delay,
                   jitter=config.delay_jitter, seed=config.seed)

    def arrival(self, send_time: float) -> float:
        """Arrival time at the destination shard for a message sent now.

        Always ``>= send_time + min_latency`` — the lookahead contract.
        """
        self.messages += 1
        delay = self.min_latency
        if self.jitter:
            delay += self._rand.uniform(0.0, self.jitter)
        return send_time + delay


class Fabric:
    """A set of hosts and the links between them."""

    def __init__(self, sim: Simulator, config: Optional[FabricConfig] = None):
        self.sim = sim
        self.config = config or FabricConfig()
        self.hosts: Dict[str, Host] = {}
        self._rand = RandomStream(self.config.seed, "fabric")
        self._partitions: set = set()
        self._link_faults: Dict[frozenset, LinkFault] = {}
        self._host_faults: Dict[str, LinkFault] = {}
        # Optional MetricsRegistry (set by Cell): drop/corrupt/slow events
        # are counted here so a chaos run is readable from render_metrics().
        self.registry = None
        self._series_cache: Dict[tuple, object] = {}
        self._series_registry = None

    def _count(self, name: str, help_text: str, **labels) -> None:
        registry = self.registry
        if registry is None:
            return
        if registry is not self._series_registry:
            # Cell assigns the registry after construction; drop handles
            # bound against a previous one.
            self._series_cache = {}
            self._series_registry = registry
        key = (name,) + tuple(sorted(labels.items()))
        series = self._series_cache.get(key)
        if series is None:
            series = self._series_cache[key] = \
                registry.counter(name, help_text).labels(**labels)
        series.inc()

    def _count_drop(self, reason: str) -> None:
        self._count("cliquemap_fabric_dropped_total",
                    "Deliveries dropped by the fabric, by cause",
                    reason=reason)

    # -- topology -----------------------------------------------------------

    def add_host(self, name: str,
                 host_config: Optional[HostConfig] = None,
                 nic_rate: Optional[float] = None,
                 zone: str = "local") -> Host:
        """Create a host with an attached NIC and register it.

        ``zone`` names the datacenter; deliveries between zones pay the
        WAN delay instead of the intra-fabric delay."""
        if name in self.hosts:
            raise ValueError(f"duplicate host name {name!r}")
        host = Host(self.sim, name, host_config)
        host.zone = zone
        rate = nic_rate if nic_rate is not None \
            else self.config.host_rate_bytes_per_sec
        host.nic = Nic(self.sim, name, rate, self.config.mtu)
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        return self.hosts[name]

    # -- delivery -------------------------------------------------------------

    def deliver(self, src: Host, dst: Host, payload_bytes: int,
                trace=None, parts: int = 1) -> Generator:
        """Move ``payload_bytes`` from ``src`` to ``dst`` (a generator).

        Completes when the last byte has been received; returns ``True``
        when an injected gray fault corrupted the delivery in flight (the
        caller decides what "corrupted" means for its payload — RMA
        transports flip response bytes, RPC ignores the flag). Loopback
        delivery (src is dst) skips the NIC entirely. When ``trace`` (a
        telemetry span) is given, the delivery decomposes into
        egress-queueing, propagation, and ingress-queueing child spans.

        ``parts`` declares how many logical operations this single
        transfer coalesces (batched multi-key ops, §7.1): the wire cost is
        still one transfer — that is the point — but the coalescing is
        counted so dashboards can attribute fabric savings to batching.
        """
        span = (trace or NULL_SPAN).child("fabric.deliver", src=src.name,
                                          dst=dst.name, bytes=payload_bytes)
        if parts > 1:
            span.annotate(parts=parts)
            self._count("cliquemap_fabric_coalesced_total",
                        "Fabric transfers carrying a coalesced multi-op "
                        "payload")
        try:
            if src is dst:
                yield self.sim.delay(1e-7)
                return False
            if self.is_partitioned(src, dst):
                # Packets vanish; the sender learns via (re)transmit timeout.
                span.annotate(dropped=True, reason="partition")
                self._count_drop("partition")
                yield self.sim.delay(self.config.partition_detect_delay)
                raise NetworkDropError(src.name, dst.name, "partition")
            fault = self.fault_between(src, dst)
            corrupted = False
            if fault is not None:
                if fault.loss_probability and \
                        self._rand.bernoulli(fault.loss_probability):
                    span.annotate(dropped=True, reason="loss")
                    self._count_drop("loss")
                    yield self.sim.delay(
                        self.config.partition_detect_delay)
                    raise NetworkDropError(src.name, dst.name, "loss")
                if fault.corrupt_probability and \
                        self._rand.bernoulli(fault.corrupt_probability):
                    corrupted = True
                    span.annotate(corrupted=True)
                    self._count("cliquemap_fabric_corrupted_total",
                                "Deliveries corrupted in flight by an "
                                "injected gray fault")
            wire = self.config.mtu.wire_bytes(payload_bytes)
            egress = span.child("egress")
            yield src.nic.egress.transmit(wire)
            egress.finish()
            delay = self.config.one_way_delay if src.zone == dst.zone \
                else self.config.inter_zone_delay
            if self.config.delay_jitter:
                delay += self._rand.uniform(0.0, self.config.delay_jitter)
            if fault is not None and fault.latency_multiplier != 1.0:
                delay *= fault.latency_multiplier
                span.annotate(slowed=fault.latency_multiplier)
                self._count("cliquemap_fabric_slowed_total",
                            "Deliveries delayed by an injected slow-link "
                            "fault")
            propagate = span.child("propagate")
            yield self.sim.delay(delay)
            propagate.finish()
            ingress = span.child("ingress")
            yield dst.nic.ingress.transmit(wire)
            ingress.finish()
            return corrupted
        finally:
            span.finish()

    def corrupt(self, data: bytes) -> bytes:
        """Flip one seeded-random byte of ``data`` (a corrupted delivery)."""
        if not data:
            return data
        i = self._rand.randint(0, len(data) - 1)
        return data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1:]

    # -- partitions -----------------------------------------------------------

    def partition(self, a: Host, b: Host) -> None:
        """Drop all traffic between ``a`` and ``b`` (both directions)."""
        self._partitions.add(frozenset((a.name, b.name)))

    def heal(self, a: Host, b: Host) -> None:
        self._partitions.discard(frozenset((a.name, b.name)))

    def heal_all(self) -> None:
        self._partitions.clear()

    def is_partitioned(self, a: Host, b: Host) -> bool:
        if not self._partitions:  # the common healthy-fabric case
            return False
        return frozenset((a.name, b.name)) in self._partitions

    # -- gray failures --------------------------------------------------------

    def degrade(self, a: Host, b: Host, fault: LinkFault) -> None:
        """Apply ``fault`` to all deliveries between ``a`` and ``b``."""
        self._link_faults[frozenset((a.name, b.name))] = fault

    def degrade_host(self, host: Host, fault: LinkFault) -> None:
        """Apply ``fault`` to every delivery to or from ``host``."""
        self._host_faults[host.name] = fault

    def clear_host_fault(self, host: Host) -> None:
        self._host_faults.pop(host.name, None)

    def host_fault(self, host: Host) -> Optional[LinkFault]:
        return self._host_faults.get(host.name)

    def clear_faults(self) -> None:
        self._link_faults.clear()
        self._host_faults.clear()

    def fault_between(self, src: Host, dst: Host) -> Optional[LinkFault]:
        """The effective (stacked) gray fault for one delivery, or None."""
        if not self._link_faults and not self._host_faults:
            return None  # the common healthy-fabric case
        fault = None
        for candidate in (self._link_faults.get(
                              frozenset((src.name, dst.name))),
                          self._host_faults.get(src.name),
                          self._host_faults.get(dst.name)):
            if candidate is None:
                continue
            fault = candidate if fault is None else fault.combine(candidate)
        return fault

    # -- background antagonist traffic ---------------------------------------

    def start_antagonist(self, target: Host, offered_bytes_per_sec: float,
                         direction: str = "both",
                         chunk_bytes: int = 64 * 1024) -> Process:
        """Offer competing traffic through ``target``'s NIC.

        Models the §7.2.1 antagonist that pushes ~95 Gbps of demand through
        one backend's NIC. Traffic is an open loop of fixed-size chunks at
        the offered rate; chunks queue behind (and delay) CliqueMap's own
        transfers on the same links.
        """
        if direction not in ("egress", "ingress", "both"):
            raise ValueError(f"bad antagonist direction {direction!r}")

        def chunk_sender(link):
            yield link.transmit(chunk_bytes)

        def antagonist():
            interval = chunk_bytes / offered_bytes_per_sec
            rand = self._rand.child(f"antagonist:{target.name}")
            while True:
                if direction in ("egress", "both"):
                    self.sim.process(chunk_sender(target.nic.egress))
                if direction in ("ingress", "both"):
                    self.sim.process(chunk_sender(target.nic.ingress))
                yield self.sim.delay(rand.expovariate(1.0 / interval))

        proc = self.sim.process(antagonist(),
                                name=f"antagonist:{target.name}")
        proc.defused = True
        return proc
