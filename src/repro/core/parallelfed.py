"""Sharded federation: one zone per shard, WAN traffic at the boundary.

Binds the model layer to the conservative-lookahead engine
(:mod:`repro.sim.parallel`): each federation zone becomes a
:class:`ZoneShard` owning its own :class:`~repro.sim.Simulator`,
:class:`~repro.net.Fabric`, and :class:`~repro.core.Cell` (built by the
same :func:`~repro.core.federation.build_zone_cell` the single-process
:class:`~repro.core.Federation` uses), so microsecond-scale intra-cell
traffic never leaves the shard. The only inter-shard traffic is what
crosses the WAN in the paper's federation posture (§1/§3): fan-out
writes, remote-fallback GETs, and their replies — each modeled as a
:class:`~repro.net.CrossShardLink` hop whose minimum latency is the
coordinator's lookahead.

Cross-shard RPC shape: a federated client's remote op parks on an
:class:`~repro.sim.Event` and sends a ``req`` message; the destination
shard injects the request at its WAN arrival time, executes it through a
local *gateway* client (standing in for the single-fabric federation's
remote RPC client), and sends a ``rsp`` message whose arrival resumes
the parked process. Both legs pay the WAN link; the gateway op pays
intra-zone costs on the destination fabric.

The zone workload (scripted federated ops plus an optional
population-model riding along per zone) is shared, verbatim, with the
plain single-process federation arm in
:func:`run_plain_federation` — that is what makes the digest-equivalence
checks in :mod:`repro.analysis.parallel` meaningful.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..net import CrossShardLink, Fabric, FabricConfig
from ..sim import Event, RandomStream, ShardProgram, Simulator
from .cell import Cell, CellSpec
from .errors import GetStatus
from .federation import FederatedClient, Federation, FederationSpec, \
    build_zone_cell


@dataclass(frozen=True)
class ZoneWorkloadSpec:
    """Per-zone workload for a (sharded or plain) federation run.

    Each zone runs ``clients`` federated clients in an open think-time
    loop of scripted ops: every ``fanout_every``-th op is a fan-out SET
    of a zone-shared key (written to every zone), every
    ``remote_every``-th is a GET of another zone's *private* key (a
    local miss served by WAN remote fallback, which then fills the local
    cell), the rest are local GETs of the zone's shared keys. On top of
    that, ``population_clients`` modeled clients per zone (PR 8
    aggregate population model) offer pure intra-zone GET load — the
    traffic that makes sharding pay.
    """

    clients: int = 4
    think_mean: float = 200e-6
    fanout_every: int = 16
    remote_every: int = 8
    shared_keys: int = 64
    private_keys: int = 16
    value_bytes: int = 128
    population_clients: int = 0
    population_rate: float = 0.0        # key-ops/sec per modeled client
    population_drivers: int = 4
    population_keys: int = 512
    seed: int = 1
    # Export each zone's retained span trees (as plain dicts) in its
    # run digest, so the post-run stitcher can merge cross-zone traces.
    # Off by default: trace payloads ride in worker result pickles and
    # the equivalence digests deliberately ignore them.
    export_traces: bool = False


@dataclass(frozen=True)
class ZoneShardSpec:
    """Everything one worker needs to build its zone (fully picklable)."""

    zone: str
    zones: Tuple[str, ...]
    cell_spec: CellSpec = field(default_factory=CellSpec)
    fabric_config: FabricConfig = field(default_factory=FabricConfig)
    workload: ZoneWorkloadSpec = field(default_factory=ZoneWorkloadSpec)
    duration: float = 1.0


@dataclass
class RemoteOpResult:
    """What a WAN remote op returned (reconstructed shard-side)."""

    status: object
    value: Optional[bytes] = None


class RemoteZoneProxy:
    """Duck-types the remote :class:`~repro.core.CliqueMapClient` in a
    :class:`FederatedClient`'s remotes map, but executes ops on another
    shard via the WAN message protocol instead of a shared fabric."""

    def __init__(self, shard: "ZoneShard", dst_index: int):
        self.shard = shard
        self.dst_index = dst_index

    def connect(self):
        # Gateway clients connect on the destination shard at build time.
        return
        yield  # pragma: no cover - makes this a generator

    def _wan_span(self, trace, op: str):
        """Local span covering the parked WAN round trip (or None).

        Its :meth:`~repro.telemetry.Span.ref` rides in the request
        message; the destination starts a ``wan.serve`` root whose
        ``remote_parent`` is exactly this span — the joint the post-run
        stitcher reassembles.
        """
        if not trace:
            return None, None
        span = trace.child("wan.call", op=op,
                           dst=self.shard.spec.zones[self.dst_index])
        return span, span.ref(self.shard.zone)

    def get(self, key: bytes, deadline: Optional[float] = None,
            trace=None):
        span, ref = self._wan_span(trace, "get")
        status_name, value = yield from self.shard.wan_call(
            self.dst_index, "get", key, None, trace_ref=ref)
        if span is not None:
            span.annotate(status=status_name).finish()
        return RemoteOpResult(GetStatus[status_name], value)

    def set(self, key: bytes, value: bytes,
            deadline: Optional[float] = None, trace=None):
        span, ref = self._wan_span(trace, "set")
        status_name, _ = yield from self.shard.wan_call(
            self.dst_index, "set", key, value, trace_ref=ref)
        if span is not None:
            span.annotate(status=status_name).finish()
        return RemoteOpResult(status_name)

    def erase(self, key: bytes, deadline: Optional[float] = None,
              trace=None):
        span, ref = self._wan_span(trace, "erase")
        status_name, _ = yield from self.shard.wan_call(
            self.dst_index, "erase", key, None, trace_ref=ref)
        if span is not None:
            span.annotate(status=status_name).finish()
        return RemoteOpResult(status_name)


class OpDigest:
    """Order-sensitive digest of every completed federated op."""

    def __init__(self):
        self._h = hashlib.blake2b(digest_size=16)
        self.ops = 0

    def add(self, client: int, op: int, kind: str, key: bytes,
            status: str, value_len: int, latency: float) -> None:
        self.ops += 1
        self._h.update(b"%d|%d|%s|%s|%s|%d|%s;" % (
            client, op, kind.encode(), key, status.encode(), value_len,
            repr(latency).encode()))

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# ---------------------------------------------------------------------------
# The zone workload — shared between the sharded and plain arms.
# ---------------------------------------------------------------------------


def _shared_key(zone: str, i: int) -> bytes:
    return b"%s/s-%d" % (zone.encode(), i)


def _private_key(zone: str, i: int) -> bytes:
    return b"%s/p-%d" % (zone.encode(), i)


def preload_zone(cell: Cell, zone: str, workload: ZoneWorkloadSpec) -> None:
    """Install the zone's shared + private keys in its own cell (only —
    other zones learn private keys through remote fallback)."""
    client = cell.connect_client()
    value = bytes(workload.value_bytes)

    def loader():
        for i in range(workload.shared_keys):
            yield from client.set(_shared_key(zone, i), value)
        for i in range(workload.private_keys):
            yield from client.set(_private_key(zone, i), value)

    cell.sim.run(until=cell.sim.process(loader()))
    client.close()


def make_population(cell: Cell, zone: str, workload: ZoneWorkloadSpec):
    """Build (and preload) the zone's population-model load generator,
    or None when the workload carries no population."""
    if not workload.population_clients:
        return None
    from ..workloads import KeySpace, LoadGenerator, populate
    stream = RandomStream(workload.seed, f"pop:{zone}")
    keyspace = KeySpace(stream.child("keys"), workload.population_keys,
                        prefix=b"%s/pop" % zone.encode())
    drivers = [cell.connect_client()
               for _ in range(workload.population_drivers)]
    cell.sim.run(until=cell.sim.process(
        populate(drivers[0], keyspace, workload.value_bytes)))
    return LoadGenerator(cell.sim, drivers, keyspace, stream)


def _fed_client_loop(sim: Simulator, zone: str, zones: Tuple[str, ...],
                     fed_client: FederatedClient, index: int,
                     workload: ZoneWorkloadSpec, digest: OpDigest):
    stream = RandomStream(workload.seed, f"fed:{zone}:{index}")
    value = bytes(workload.value_bytes)
    others = [z for z in zones if z != zone]
    op = 0
    while True:
        yield sim.delay(stream.expovariate(1.0 / workload.think_mean))
        op += 1
        started = sim.now
        if workload.fanout_every and op % workload.fanout_every == 0:
            key = _shared_key(zone,
                              stream.randint(0, workload.shared_keys - 1))
            result = yield from fed_client.set(key, value)
            kind, value_len = "set", workload.value_bytes
        elif others and workload.remote_every and \
                op % workload.remote_every == 1:
            other = others[stream.randint(0, len(others) - 1)]
            key = _private_key(
                other, stream.randint(0, workload.private_keys - 1))
            result = yield from fed_client.get(key)
            kind = "remote-get"
            value_len = len(result.value or b"")
        else:
            key = _shared_key(zone,
                              stream.randint(0, workload.shared_keys - 1))
            result = yield from fed_client.get(key)
            kind = "get"
            value_len = len(result.value or b"")
        digest.add(index, op, kind, key, result.status.name, value_len,
                   sim.now - started)


def start_zone_workload(sim: Simulator, zone: str, zones: Tuple[str, ...],
                        fed_clients: List[FederatedClient], generator,
                        workload: ZoneWorkloadSpec, duration: float,
                        digest: OpDigest) -> None:
    """Start the zone's federated-client loops and (if any) population."""
    for index, fed_client in enumerate(fed_clients):
        sim.process(_fed_client_loop(sim, zone, zones, fed_client, index,
                                     workload, digest))
    if generator is not None:
        generator.start_population_gets(
            workload.population_clients, workload.population_rate,
            duration)


def _zone_digest(zone: str, digest: OpDigest, fed_clients, generator,
                 metrics, tracer=None,
                 export_traces: bool = False) -> Dict[str, object]:
    stats = {"local_hits": 0, "remote_hits": 0, "misses": 0}
    for fed_client in fed_clients:
        for name in stats:
            stats[name] += fed_client.stats[name]
    population = None
    if generator is not None:
        m = generator.metrics
        population = {"gets": m.gets, "hits": m.hits,
                      "offered": m.offered, "shed": m.shed,
                      "thinned": m.thinned}
    out = {
        "zone": zone,
        "ops": digest.ops,
        "ops_digest": digest.hexdigest(),
        "fed_stats": stats,
        "population": population,
        "metrics": {name: metrics.total(name)
                    for name in metrics.families()},
    }
    if export_traces and tracer is not None:
        # Extra key, deliberately ignored by the equivalence digests
        # (analysis.parallel compares a fixed field list): the zone's
        # retained span trees as plain picklable dicts for the stitcher.
        out["traces"] = [span.to_dict() for span in tracer.finished]
    return out


# ---------------------------------------------------------------------------
# The shard program.
# ---------------------------------------------------------------------------


class ZoneShard(ShardProgram):
    """One federation zone as a conservative-PDES shard."""

    def __init__(self, spec: ZoneShardSpec):
        super().__init__()
        self.spec = spec
        self.zone = spec.zone

    def build(self) -> None:
        spec = self.spec
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, spec.fabric_config)
        self.cell = build_zone_cell(spec.zone, spec.cell_spec, self.sim,
                                    self.fabric)
        preload_zone(self.cell, spec.zone, spec.workload)
        # WAN links to every other shard; min latency == the fabric's
        # cross-zone delay, so the boundary costs what the shared-fabric
        # federation's WAN hop costs.
        self._links: Dict[int, CrossShardLink] = {}
        for index, other in enumerate(spec.zones):
            if other != spec.zone:
                self._links[index] = CrossShardLink.from_config(
                    spec.fabric_config, spec.zone, other)
        self._pending: Dict[int, Event] = {}
        self._req_seq = 0
        self.op_digest = OpDigest()
        # Federated clients, named/created exactly as Federation
        # .make_client does so a 1-zone shard is bit-identical to the
        # plain run (per-zone counter == the federation-global one).
        self.fed_clients: List[FederatedClient] = []
        for n in range(1, spec.workload.clients + 1):
            host = self.fabric.add_host(
                f"{spec.zone}/host/fed-client-{n}", zone=spec.zone)
            local = self.cell.make_client(host=host)
            remotes = {other: RemoteZoneProxy(self, index)
                       for index, other in enumerate(spec.zones)
                       if other != spec.zone}
            fed_client = FederatedClient(spec.zone, local, remotes)
            self.sim.run(until=self.sim.process(fed_client.connect()))
            self.fed_clients.append(fed_client)
        self.generator = make_population(self.cell, spec.zone,
                                         spec.workload)
        # The gateway executes inbound WAN ops; RPC strategy, like the
        # remote clients it stands in for (RMA is WAN-inapplicable).
        self._gateway = None
        if len(spec.zones) > 1:
            self._gateway = self.cell.connect_client(strategy="rpc")

    def start(self) -> None:
        start_zone_workload(self.sim, self.spec.zone, self.spec.zones,
                            self.fed_clients, self.generator,
                            self.spec.workload, self.spec.duration,
                            self.op_digest)

    # -- WAN protocol ------------------------------------------------------

    def wan_call(self, dst_index: int, op: str, key: bytes,
                 value: Optional[bytes],
                 trace_ref: Optional[tuple] = None):
        """Issue one remote op; parks until the reply arrives (generator).

        ``trace_ref`` (a :data:`~repro.telemetry.SpanRef` or None) rides
        in the request message's ``trace`` field — propagation only,
        never consulted by the window protocol.
        """
        self._req_seq += 1
        req_id = self._req_seq
        event = Event(self.sim)
        self._pending[req_id] = event
        link = self._links[dst_index]
        self.send(dst_index, "req", (req_id, self.index, op, key, value),
                  arrival=link.arrival(self.sim.now), trace=trace_ref)
        payload = yield event
        return payload

    def receive(self, message) -> None:
        if message.kind == "req":
            self.sim.inject(message.arrival, self._spawn_serve,
                            (message.payload, message.trace))
        elif message.kind == "rsp":
            self.sim.inject(message.arrival, self._complete_call,
                            message.payload)
        else:
            raise ValueError(f"unknown message kind {message.kind!r}")

    def _spawn_serve(self, request) -> None:
        payload, trace_ref = request
        self.sim.process(self._serve(payload, trace_ref))

    def _serve(self, payload, trace_ref=None):
        req_id, src_index, op, key, value = payload
        # Serve-side root: joins the originating trace (same trace_id)
        # with the WAN caller's span as its remote parent, so the
        # stitcher can hang this zone's whole serve tree under the
        # origin zone's wan.call span. Untraced requests serve exactly
        # as before (the gateway op becomes its own standalone root).
        root = None
        if trace_ref is not None:
            root = self.cell.tracer.start(
                "wan.serve", remote_parent=tuple(trace_ref), op=op,
                zone=self.zone, src=self.spec.zones[src_index])
        if op == "get":
            result = yield from self._gateway.get(key, trace=root)
            reply = (req_id, result.status.name, result.value)
        elif op == "set":
            result = yield from self._gateway.set(key, value, trace=root)
            reply = (req_id, result.status.name, None)
        else:
            result = yield from self._gateway.erase(key, trace=root)
            reply = (req_id, result.status.name, None)
        if root:
            root.annotate(status=result.status.name).finish()
            self.cell.tracer.record(root)
        link = self._links[src_index]
        self.send(src_index, "rsp", reply,
                  arrival=link.arrival(self.sim.now))

    def _complete_call(self, payload) -> None:
        req_id, status_name, value = payload
        self._pending.pop(req_id).succeed((status_name, value))

    def digest(self) -> Dict[str, object]:
        return _zone_digest(self.zone, self.op_digest, self.fed_clients,
                            self.generator, self.cell.metrics,
                            tracer=self.cell.tracer,
                            export_traces=self.spec.workload.export_traces)


# ---------------------------------------------------------------------------
# The plain (single-loop) arm over the identical workload.
# ---------------------------------------------------------------------------


def run_plain_federation(zones: Tuple[str, ...],
                         cell_spec: CellSpec,
                         fabric_config: FabricConfig,
                         workload: ZoneWorkloadSpec,
                         duration: float) -> Dict[str, object]:
    """Run the same per-zone workload on a plain single-event-loop
    :class:`Federation` (all zones, one fabric, one simulator).

    Per-zone build steps happen in the same order as
    :meth:`ZoneShard.build`, so with a single zone this run is
    event-for-event identical to the sharded one and the digests match
    bitwise. Returns per-zone digests plus kernel totals.
    """
    federation = Federation(FederationSpec(
        zones=list(zones), cell_spec=cell_spec,
        fabric_config=fabric_config))
    sim = federation.sim
    digests = {}
    runtimes = []
    for zone in zones:
        cell = federation.cells[zone]
        preload_zone(cell, zone, workload)
        digest = OpDigest()
        fed_clients = []
        for _ in range(workload.clients):
            fed_client = federation.make_client(zone)
            sim.run(until=sim.process(fed_client.connect()))
            fed_clients.append(fed_client)
        generator = make_population(cell, zone, workload)
        runtimes.append((zone, cell, digest, fed_clients, generator))
    start = sim.now
    for zone, _cell, digest, fed_clients, generator in runtimes:
        start_zone_workload(sim, zone, zones, fed_clients, generator,
                            workload, duration, digest)
    sim.run(until=start + duration)
    for zone, cell, digest, fed_clients, generator in runtimes:
        digests[zone] = _zone_digest(zone, digest, fed_clients, generator,
                                     cell.metrics, tracer=cell.tracer,
                                     export_traces=workload.export_traces)
    return {
        "mode": "plain",
        "digests": digests,
        "events": sim._seq,
        "start": start,
        "horizon": start + duration,
    }


def shard_builders(zones: Tuple[str, ...], cell_spec: CellSpec,
                   fabric_config: FabricConfig,
                   workload: ZoneWorkloadSpec,
                   duration: float) -> List[Tuple[type, tuple]]:
    """(factory, args) pairs for :class:`~repro.sim.ShardCoordinator`."""
    zones = tuple(zones)
    return [(ZoneShard, (ZoneShardSpec(
        zone=zone, zones=zones, cell_spec=cell_spec,
        fabric_config=fabric_config, workload=workload,
        duration=duration),)) for zone in zones]


__all__ = ["ZoneWorkloadSpec", "ZoneShardSpec", "ZoneShard",
           "RemoteZoneProxy", "RemoteOpResult", "OpDigest",
           "preload_zone", "make_population", "start_zone_workload",
           "run_plain_federation", "shard_builders"]
