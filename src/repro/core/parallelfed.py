"""The federation: one zone per shard, WAN traffic at the boundary.

CliqueMap is "deployed across some 50 production clusters distributed
among 20 warehouse-scale datacenters" (§1, §3). A corpus is typically
replicated per cluster: applications talk to the cell in their own
datacenter over RMA, and fall back to a remote cell over WAN RPC when
the local cell cannot serve.

Each zone is a :class:`ZoneShard` owning its own
:class:`~repro.sim.Simulator`, :class:`~repro.net.Fabric` and
:class:`~repro.core.Cell`, run by the conservative-lookahead engine
(:mod:`repro.sim.parallel`) sequentially in one process or one worker
per zone, so microsecond-scale intra-cell traffic never leaves the
shard. The only inter-shard traffic is what crosses the WAN: fan-out
writes, remote-fallback GETs, and their replies, each a
:class:`~repro.net.CrossShardLink` hop whose minimum latency is the
coordinator's lookahead.

Cross-shard RPC shape: a :class:`FederatedClient`'s remote op parks on
an :class:`~repro.sim.Event` and sends a ``req`` message; the
destination shard injects the request at its WAN arrival time, executes
it through a local *gateway* client, and sends a ``rsp`` message whose
arrival resumes the parked process. Both legs pay the WAN link; the
gateway op pays intra-zone costs on the destination fabric.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from ..net import CrossShardLink, Fabric, FabricConfig
from ..sim import Event, RandomStream, ShardProgram, Simulator
from .cell import Cell, CellSpec
from .client import CliqueMapClient
from .errors import GetResult, GetStatus


#: Value size of every scripted and population SET of a zone workload.
VALUE_BYTES = 128


@dataclass(frozen=True)
class ZoneWorkloadSpec:
    """Per-zone workload for a federation run.

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


class FederatedClient:
    """Local-cell RMA serving with WAN fallback to the other zones of
    its :class:`ZoneShard`."""

    def __init__(self, shard: "ZoneShard", local: CliqueMapClient):
        self.shard = shard
        self.zone = shard.zone
        self.local = local
        self.sim = local.sim
        # (shard index, zone) of every other zone, in federation order.
        self.remotes = [(index, zone)
                        for index, zone in enumerate(shard.spec.zones)
                        if zone != shard.zone]
        self.stats = {"local_hits": 0, "remote_hits": 0, "misses": 0}

    def _start_fed_span(self, name: str):
        """Root span covering the whole federated operation.

        Local and remote legs attach under it via their ``trace=``
        parameter, so one span tree covers client → local cell →
        WAN fan-out → remote cell (the stitcher joins the halves that
        live in another zone's tracer, see analysis.stitch).
        """
        return self.local.tracer.start(name, zone=self.zone)

    def get(self, key: bytes, deadline: Optional[float] = None) -> Generator:
        """Serve locally; on miss/error, try remote zones over the WAN.

        Returns a :class:`GetResult` whose ``latency`` covers the whole
        federated op: the local leg, every WAN try and the local fill.
        """
        started = self.sim.now
        root = self._start_fed_span("fed.get")
        result = yield from self.local.get(key, deadline, trace=root)
        if result.status is GetStatus.HIT:
            self.stats["local_hits"] += 1
            self._finish_fed_span(root, "local_hit")
        else:
            for index, zone in self.remotes:
                status, value = yield from self._remote("get", index, (key,),
                                                        root)
                if status is GetStatus.HIT:
                    self.stats["remote_hits"] += 1
                    # Fill the local cell so the next GET is an RMA hit.
                    yield from self.local.set(key, value, trace=root)
                    self._finish_fed_span(root, "remote_hit",
                                          remote_zone=zone)
                    result = GetResult(status=status, value=value)
                    break
            else:
                self.stats["misses"] += 1
                self._finish_fed_span(root, "miss")
        result.latency = self.sim.now - started
        return result

    def set(self, key: bytes, value: bytes,
            deadline: Optional[float] = None) -> Generator:
        """Write everywhere: the local cell plus every remote zone."""
        return self._write_everywhere("set", (key, value), deadline)

    def erase(self, key: bytes,
              deadline: Optional[float] = None) -> Generator:
        return self._write_everywhere("erase", (key,), deadline)

    def _write_everywhere(self, op: str, args: tuple,
                          deadline: Optional[float]) -> Generator:
        """The local cell's :class:`MutationResult`, its ``latency``
        covering the remote writes too."""
        started = self.sim.now
        root = self._start_fed_span(f"fed.{op}")
        result = yield from getattr(self.local, op)(*args, deadline,
                                                    trace=root)
        for index, _ in self.remotes:
            yield from self._remote(op, index, args, root)
        self._finish_fed_span(root, result.status.name.lower())
        result.latency = self.sim.now - started
        return result

    def _remote(self, op: str, dst_index: int, args: tuple, trace):
        """``op(*args)`` on zone ``dst_index`` over the WAN, parked until
        its reply: the remote gateway's ``(status, value)``.

        When traced, a local ``wan.call`` span covers the round trip.
        Its :meth:`~repro.telemetry.Span.ref` rides in the request
        message; the destination starts a ``wan.serve`` root whose
        ``remote_parent`` is exactly this span — the joint the post-run
        stitcher reassembles.
        """
        span = ref = None
        if trace:
            span = trace.child("wan.call", op=op,
                               dst=self.shard.spec.zones[dst_index])
            ref = span.ref(self.zone)
        status, value = yield from self.shard.wan_call(
            dst_index, op, args, trace_ref=ref)
        if span is not None:
            span.annotate(status=status.name).finish()
        return status, value

    def _finish_fed_span(self, root, outcome: str, **labels) -> None:
        if not root:
            return
        root.annotate(outcome=outcome, **labels).finish()
        self.local.tracer.record(root)


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


def _shared_key(zone: str, i: int) -> bytes:
    return b"%s/s-%d" % (zone.encode(), i)


def _private_key(zone: str, i: int) -> bytes:
    return b"%s/p-%d" % (zone.encode(), i)


class ZoneShard(ShardProgram):
    """One federation zone as a conservative-PDES shard."""

    def __init__(self, spec: ZoneShardSpec):
        super().__init__()
        self.spec = spec
        self.zone = spec.zone

    def build(self) -> None:
        """Stand up the zone's cell and WAN links, preload its keys,
        connect ``workload.clients`` federated clients one at a time,
        then build the population."""
        spec = self.spec
        self.sim = Simulator()
        # Zone-aware (hosts land in the zone, with zone-prefixed names),
        # from a copy of the template: shards built in one process must
        # not share one spec's backend/repair/maintenance config.
        cell_spec = copy.deepcopy(spec.cell_spec)
        cell_spec.name = f"{cell_spec.name}-{spec.zone}"
        self.cell = Cell(cell_spec, sim=self.sim,
                         fabric=Fabric(self.sim, spec.fabric_config),
                         zone=spec.zone)
        # WAN links to every other shard; min latency == the fabric's
        # cross-zone delay.
        self._links: Dict[int, CrossShardLink] = {}
        for index, other in enumerate(spec.zones):
            if other != spec.zone:
                self._links[index] = CrossShardLink.from_config(
                    spec.fabric_config, spec.zone, other)
        self._pending: Dict[int, Event] = {}
        self._req_seq = 0
        self.op_digest = OpDigest()
        self._preload()
        self.fed_clients: List[FederatedClient] = []
        for seq in range(1, spec.workload.clients + 1):
            local = self.cell.make_client(
                host=self.cell.add_local_host(f"host/fed-client-{seq}"))
            self.sim.run(until=self.sim.process(local.connect()))
            self.fed_clients.append(FederatedClient(self, local))
        self.generator = self._population()
        # The gateway executes inbound WAN ops with the RPC strategy:
        # RMA is WAN-inapplicable.
        self._gateway = None
        if len(spec.zones) > 1:
            self._gateway = self.cell.connect_client(strategy="rpc")

    def _preload(self) -> None:
        """Install the zone's shared + private keys in its own cell (only —
        other zones learn private keys through remote fallback)."""
        workload = self.spec.workload
        client = self.cell.connect_client()
        value = bytes(VALUE_BYTES)

        def loader():
            for i in range(workload.shared_keys):
                yield from client.set(_shared_key(self.zone, i), value)
            for i in range(workload.private_keys):
                yield from client.set(_private_key(self.zone, i), value)

        self.sim.run(until=self.sim.process(loader()))
        client.close()

    def _population(self):
        """Build (and preload) the zone's population-model load
        generator, or None when the workload carries no population."""
        workload = self.spec.workload
        if not workload.population_clients:
            return None
        from ..workloads import KeySpace, LoadGenerator, populate
        stream = RandomStream(workload.seed, f"pop:{self.zone}")
        keyspace = KeySpace(stream.child("keys"), workload.population_keys,
                            prefix=b"%s/pop" % self.zone.encode())
        drivers = [self.cell.connect_client()
                   for _ in range(workload.population_drivers)]
        self.sim.run(until=self.sim.process(
            populate(drivers[0], keyspace, VALUE_BYTES)))
        return LoadGenerator(self.sim, drivers, keyspace, stream)

    def start(self) -> None:
        """Start the federated-client loops and (if any) the
        population."""
        for index, fed_client in enumerate(self.fed_clients):
            self.sim.process(self._client_loop(fed_client, index))
        workload = self.spec.workload
        if self.generator is not None:
            self.generator.start_population_gets(
                workload.population_clients, workload.population_rate,
                self.spec.duration)

    def _client_loop(self, fed_client: FederatedClient, index: int):
        sim, zone, workload = self.sim, self.zone, self.spec.workload
        stream = RandomStream(workload.seed, f"fed:{zone}:{index}")
        value = bytes(VALUE_BYTES)
        others = [z for z in self.spec.zones if z != zone]
        op = 0
        while True:
            yield sim.delay(stream.expovariate(1.0 / workload.think_mean))
            op += 1
            started = sim.now
            if workload.fanout_every and op % workload.fanout_every == 0:
                key = _shared_key(
                    zone, stream.randint(0, workload.shared_keys - 1))
                result = yield from fed_client.set(key, value)
                kind, value_len = "set", VALUE_BYTES
            elif others and workload.remote_every and \
                    op % workload.remote_every == 1:
                other = others[stream.randint(0, len(others) - 1)]
                key = _private_key(
                    other, stream.randint(0, workload.private_keys - 1))
                result = yield from fed_client.get(key)
                kind = "remote-get"
                value_len = len(result.value or b"")
            else:
                key = _shared_key(
                    zone, stream.randint(0, workload.shared_keys - 1))
                result = yield from fed_client.get(key)
                kind = "get"
                value_len = len(result.value or b"")
            self.op_digest.add(index, op, kind, key, result.status.name,
                               value_len, sim.now - started)

    # -- WAN protocol ------------------------------------------------------

    def wan_call(self, dst_index: int, op: str, args: tuple,
                 trace_ref: Optional[tuple] = None):
        """Run ``op(*args)`` on the destination's gateway client; parks
        until the reply (its status enum and value) arrives (generator).

        ``trace_ref`` (a :data:`~repro.telemetry.SpanRef` or None) rides
        in the request message's ``trace`` field — propagation only,
        never consulted by the window protocol.
        """
        self._req_seq += 1
        req_id = self._req_seq
        event = Event(self.sim)
        self._pending[req_id] = event
        link = self._links[dst_index]
        self.send(dst_index, "req", (req_id, self.index, op, args),
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
        req_id, src_index, op, args = payload
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
        result = yield from getattr(self._gateway, op)(*args, trace=root)
        reply = (req_id, result.status, getattr(result, "value", None))
        if root:
            root.annotate(status=result.status.name).finish()
            self.cell.tracer.record(root)
        link = self._links[src_index]
        self.send(src_index, "rsp", reply,
                  arrival=link.arrival(self.sim.now))

    def _complete_call(self, payload) -> None:
        req_id, status, value = payload
        self._pending.pop(req_id).succeed((status, value))

    def digest(self) -> Dict[str, object]:
        stats = {"local_hits": 0, "remote_hits": 0, "misses": 0}
        for fed_client in self.fed_clients:
            for name in stats:
                stats[name] += fed_client.stats[name]
        population = None
        if self.generator is not None:
            m = self.generator.metrics
            population = {"gets": m.gets, "hits": m.hits,
                          "offered": m.offered, "shed": m.shed,
                          "thinned": m.thinned}
        metrics = self.cell.metrics
        out = {
            "zone": self.zone,
            "ops": self.op_digest.ops,
            "ops_digest": self.op_digest.hexdigest(),
            "fed_stats": stats,
            "population": population,
            "metrics": {name: metrics.total(name)
                        for name in metrics.families()},
        }
        if self.spec.workload.export_traces:
            # Extra key, deliberately ignored by the equivalence digests
            # (analysis.parallel compares a fixed field list): the zone's
            # retained span trees as plain picklable dicts for the stitcher.
            out["traces"] = [span.to_dict()
                             for span in self.cell.tracer.finished]
        return out


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
           "FederatedClient", "OpDigest", "shard_builders"]
