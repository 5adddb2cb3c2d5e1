"""A durable system of record (§6.4) with provisioned throughput.

Google's durable storage ecosystem (Bigtable/Spanner-class systems over
persistent media) is the source of truth for cached corpora: the cache
is loaded from it, cache misses fall back to it at persistent-storage
latency, and write-behind traffic drains into it. The simulation models
what matters to CliqueMap:

* reads cost media latency (and queue behind a bounded set of media
  channels), so they are orders of magnitude slower than an RMA GET;
* transfers additionally contend on one shared per-host media bus, so
  concurrent fetches divide — not multiply — the host's bandwidth;
* capacity is *provisioned* (HopperKV/DynamoDB-style read/write units):
  requests beyond the provisioned rate are throttled with a
  ``ProvisionedThroughputExceeded``-shaped reply instead of queueing
  without bound, and a ``brownout()`` hook (driven by ``repro.faults``)
  scales the provisioned rate down for a window;
* a Scan interface supports bulk corpus loading, and a Write interface
  absorbs write-behind flushes while the corpus is unfrozen;
* ``freeze()`` makes the corpus immutable, matching §6.4's mode.

``load``/``freeze`` are the corpus-management surface (part of
:class:`~repro.storage.SystemOfRecordProtocol`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from ..core.errors import CliqueMapError
from ..core.resilience import RetryBudget
from ..net import Host
from ..rpc import HandlerContext, RpcServer
from ..sim import Resource, Simulator
from ..telemetry import tally


@dataclass
class StorageCostModel:
    """Persistent-media access costs."""

    media_latency: float = 1.5e-3        # seek/lookup on persistent media
    bytes_per_sec: float = 400e6         # media transfer bandwidth
    media_channels: int = 8              # concurrent accesses before queueing
    cpu_per_read: float = 10e-6          # storage-server CPU per request


#: Payload bytes one provisioned capacity unit covers.
UNIT_BYTES = 4096


@dataclass
class ProvisionedThroughput:
    """HopperKV/DynamoDB-style provisioned capacity for one SoR.

    Reads and writes each draw from a token bucket refilled at
    ``read_units``/``write_units`` per simulated second; one unit covers
    ``UNIT_BYTES`` of payload (a request costs ``ceil(size/UNIT_BYTES)``,
    minimum one). The bucket holds up to ``burst_seconds`` worth of
    units, so short bursts ride on accumulated credit. Requests that
    find the bucket dry are throttled — the reply carries
    ``throttled=True`` (the wire shape of a
    ``ProvisionedThroughputExceeded`` error) and costs no media time.
    """

    read_units: float = 2000.0
    write_units: float = 1000.0
    burst_seconds: float = 2.0

    def __post_init__(self) -> None:
        for name in ("read_units", "write_units"):
            if getattr(self, name) <= 0:
                raise CliqueMapError(
                    f"ProvisionedThroughput.{name} must be > 0, "
                    f"got {getattr(self, name)!r}")
        if self.burst_seconds <= 0:
            raise CliqueMapError(
                "ProvisionedThroughput.burst_seconds must be > 0, "
                f"got {self.burst_seconds!r}")


class SystemOfRecord:
    """A durable KV store served over RPC.

    ``throughput=None`` provisions unlimited capacity (the pre-PR-6
    behavior); pass a :class:`ProvisionedThroughput` to model a real
    quota. Requests are tallied by ``(op, result)`` in
    ``request_counts``; :meth:`adopt_counts` sums that tally into a
    registry's ``cliquemap_sor_requests_total{op,result}``, and
    ``reads``, ``writes`` and ``throttled`` are reads of it.
    """

    def __init__(self, sim: Simulator, host: Host,
                 cost: Optional[StorageCostModel] = None,
                 name: str = "sor",
                 throughput: Optional[ProvisionedThroughput] = None):
        self.sim = sim
        self.host = host
        self.cost = cost or StorageCostModel()
        self.name = name
        self.throughput = throughput
        self._data: Dict[bytes, bytes] = {}
        self._keys_ordered: List[bytes] = []
        self._sealed = False
        self._media = Resource(sim, capacity=self.cost.media_channels,
                               name=f"{name}.media")
        # One media *bus* per host: seeks overlap across channels, but
        # transfers share the host's bandwidth, so concurrent fetches
        # contend instead of each enjoying the full bytes_per_sec.
        bus = getattr(host, "_storage_media_bus", None)
        if bus is None:
            bus = Resource(sim, capacity=1, name=f"{host.name}.media-bus")
            host._storage_media_bus = bus
        self._bus = bus
        self.write_log: List[bytes] = []     # applied Write keys, in order
        self._brownout_factor = 1.0
        self._brownout_token = None
        self.brownouts = 0
        if throughput is not None:
            self._read_bucket = RetryBudget(
                clock=lambda: sim.now,
                capacity=throughput.read_units * throughput.burst_seconds,
                fill_rate=throughput.read_units)
            self._write_bucket = RetryBudget(
                clock=lambda: sim.now,
                capacity=throughput.write_units * throughput.burst_seconds,
                fill_rate=throughput.write_units)
        else:
            self._read_bucket = self._write_bucket = None
        self.request_counts = tally()
        self.rpc_server = RpcServer(sim, host, f"storage/{name}")
        self.rpc_server.register("Read", self._handle_read)
        self.rpc_server.register("Scan", self._handle_scan)
        self.rpc_server.register("Write", self._handle_write)

    # -- telemetry --------------------------------------------------------

    def adopt_counts(self, registry) -> None:
        """Sum ``request_counts`` into ``registry`` (idempotent)."""
        registry.adopt(
            "cliquemap_sor_requests_total",
            "SoR-side requests by op and result (ok/miss/throttled/sealed)",
            self.request_counts, ("op", "result"))

    @property
    def reads(self) -> int:
        counts = self.request_counts
        return counts["read", "ok"] + counts["read", "miss"]

    @property
    def writes(self) -> int:
        return self.request_counts["write", "ok"]

    @property
    def throttled(self) -> int:
        return sum(count for (_op, result), count
                   in self.request_counts.items() if result == "throttled")

    # -- corpus management ------------------------------------------------

    def load(self, items: Dict[bytes, bytes]) -> None:
        """Write a corpus batch (build time; not on the serving path)."""
        if self._sealed:
            raise RuntimeError("corpus is sealed (immutable)")
        for key, value in items.items():
            if key not in self._data:
                self._keys_ordered.append(key)
            self._data[key] = value

    def freeze(self) -> None:
        """Make the corpus immutable from now on (§6.4).

        A frozen SoR rejects Write RPCs with ``reason="sealed"``; leave
        it unfrozen when write-behind should drain into it.
        """
        self._sealed = True

    @property
    def sealed(self) -> bool:
        return self._sealed

    def __len__(self) -> int:
        return len(self._data)

    # -- provisioned capacity ---------------------------------------------

    def _units(self, nbytes: int) -> float:
        return float(max(1, -(-nbytes // UNIT_BYTES)))

    def _admit(self, bucket: Optional[RetryBudget], nbytes: int) -> bool:
        if bucket is None:
            return True
        return bucket.try_spend(self._units(nbytes))

    def brownout(self, factor: float, duration: float = 0.0) -> None:
        """Scale provisioned capacity by ``factor`` (a degraded window).

        With ``duration > 0`` the previous capacity is restored after
        that many simulated seconds (the restore is keyed to this
        brownout, so a later overlapping brownout is not clobbered).
        Without provisioned throughput this is a recorded no-op.
        """
        if not 0.0 < factor <= 1.0:
            raise CliqueMapError(
                f"brownout factor must be in (0, 1], got {factor!r}")
        self.brownouts += 1
        token = self.brownouts
        self._brownout_token = token
        if self._read_bucket is None:
            return
        self._brownout_factor = factor
        base = self.throughput
        self._read_bucket.fill_rate = base.read_units * factor
        self._write_bucket.fill_rate = base.write_units * factor
        if duration > 0:
            def restore():
                if self._brownout_token == token:
                    self.restore()
            self.sim.call_in(duration, restore)

    def restore(self) -> None:
        """End any active brownout: provisioned rates back to 100%."""
        self._brownout_factor = 1.0
        self._brownout_token = None
        if self._read_bucket is not None:
            self._read_bucket.fill_rate = self.throughput.read_units
            self._write_bucket.fill_rate = self.throughput.write_units

    @property
    def browned_out(self) -> bool:
        return self._brownout_factor < 1.0

    # -- media access -----------------------------------------------------

    def _media_read(self, nbytes: int) -> Generator:
        request = self._media.request()
        yield request
        try:
            yield self.sim.delay(self.cost.media_latency)
            if nbytes > 0:
                yield self._bus.hold(nbytes / self.cost.bytes_per_sec)
        finally:
            self._media.release(request)

    # -- RPC handlers -----------------------------------------------------

    def _handle_read(self, payload, context: HandlerContext) -> Generator:
        key: bytes = payload["key"]
        yield self.host.execute(self.cost.cpu_per_read,
                                f"storage:{self.name}")
        value = self._data.get(key)
        if not self._admit(self._read_bucket, len(value) if value else 0):
            self.request_counts["read", "throttled"] += 1
            return {"found": False, "throttled": True,
                    "reason": "ProvisionedThroughputExceeded"}
        yield from self._media_read(len(value) if value else 0)
        if value is None:
            self.request_counts["read", "miss"] += 1
            return {"found": False}
        self.request_counts["read", "ok"] += 1
        context.response_size_override = len(value) + 32
        return {"found": True, "value": value}

    def _handle_write(self, payload, context: HandlerContext) -> Generator:
        """Apply one write-behind flush entry (or a delete marker)."""
        key: bytes = payload["key"]
        delete: bool = bool(payload.get("delete"))
        value: Optional[bytes] = None if delete else payload["value"]
        yield self.host.execute(self.cost.cpu_per_read,
                                f"storage:{self.name}")
        if self._sealed:
            self.request_counts["write", "sealed"] += 1
            return {"applied": False, "reason": "sealed"}
        nbytes = len(key) + (len(value) if value else 0)
        if not self._admit(self._write_bucket, nbytes):
            self.request_counts["write", "throttled"] += 1
            return {"applied": False, "throttled": True,
                    "reason": "ProvisionedThroughputExceeded"}
        yield from self._media_read(nbytes)
        if delete:
            if key in self._data:
                del self._data[key]
                self._keys_ordered.remove(key)
        else:
            if key not in self._data:
                self._keys_ordered.append(key)
            self._data[key] = value
        self.write_log.append(key)
        self.request_counts["write", "ok"] += 1
        return {"applied": True}

    def _handle_scan(self, payload, context: HandlerContext) -> Generator:
        """Cursor-based bulk scan for corpus loading."""
        cursor: int = payload.get("cursor", 0)
        limit: int = payload.get("limit", 64)
        yield self.host.execute(self.cost.cpu_per_read,
                                f"storage:{self.name}")
        keys = self._keys_ordered[cursor:cursor + limit]
        entries: List[Tuple[bytes, bytes]] = [(k, self._data[k])
                                              for k in keys]
        total = sum(len(k) + len(v) for k, v in entries)
        if not self._admit(self._read_bucket, total):
            self.request_counts["scan", "throttled"] += 1
            return {"entries": [], "next_cursor": cursor, "done": False,
                    "throttled": True,
                    "reason": "ProvisionedThroughputExceeded"}
        yield from self._media_read(total)
        self.request_counts["scan", "ok"] += 1
        context.response_size_override = total + 64
        return {"entries": entries,
                "next_cursor": cursor + len(keys),
                "done": cursor + len(keys) >= len(self._keys_ordered)}
