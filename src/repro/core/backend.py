"""The CliqueMap backend task: memory owner and RPC mutation engine (§4).

The backend owns the index and data regions and exposes them for RMA
reads; *all* mutation happens inside RPC handlers, which gives the server
the familiar programming abstraction for allocation, eviction,
defragmentation, index resizing, and data-region reshaping. Server-side
logic only needs to make retryable conditions transient, detectable, and
rare — client-side validation poisons any racing lookup.

DataEntry writes happen in two steps separated by simulated time (body,
then checksum), so a concurrent RMA read genuinely observes a torn entry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Generator, List, Optional, Tuple

from ..net import Host
from ..rpc import HandlerContext, RpcServer
from ..sim import Simulator
from ..sim.core import PARKED
from ..telemetry import MetricsRegistry, tally
from ..transport import Transport, registration_time
from .config import CellConfig
from .data import DataRegion, encode_entry_parts, entry_size, try_decode
from .eviction import make_policy
from .hashing import Placement, primary_for
from .index import IndexRegion, make_scar_program
from . import tombstone
from .version import VersionNumber


#: Data-region growth factor when the populated arena crosses its
#: watermark, and index growth factor on a resize.
GROW_FACTOR = 1.5
INDEX_RESIZE_MULTIPLIER = 2
#: Remembered erase versions (bounded; oldest forgotten first).
TOMBSTONE_CAPACITY = 4096
#: Timing of multi-step DataEntry writes: the tear window.
WRITE_BYTES_PER_SEC = 8e9
# Handler CPU costs.
SET_CPU = 2.0e-6
LOOKUP_CPU = 1.5e-6
TOUCH_CPU_PER_RECORD = 0.08e-6
SCAN_CPU_PER_ENTRY = 0.05e-6
#: Each extra entry of a batched MultiSet RPC: the request dispatch is
#: paid once, so additional entries are much cheaper than standalone
#: ops (§7.1 backfill batching).
MULTI_ENTRY_CPU = 0.5e-6
PER_KILOBYTE_CPU = 0.10e-6
#: Overflow-table entries before a spill is refused.
OVERFLOW_CAPACITY = 1024
#: How long a retired data window stays readable after a grow.
OLD_WINDOW_GRACE = 20e-3


@dataclass
class BackendConfig:
    """Tunables for one backend task."""

    num_buckets: int = 512
    ways: int = 7
    data_initial_bytes: int = 1 << 20          # 1 MiB populated at start
    data_virtual_limit: int = 1 << 28          # 256 MiB reserved virtually
    slab_bytes: int = 256 * 1024               # slab size (max object ~slab)
    grow_watermark: float = 0.80               # grow when used/populated above
    index_resize_load_factor: float = 0.85
    eviction_policy: str = "lru"
    overflow_rpc_fallback: bool = True
    min_write_step: float = 0.2e-6             # shortest tear-window step
    # Ablation switch: write body+checksum in one indivisible step (no
    # tear window). Unrealistic for RMA-exposed memory; used to show the
    # design's torn-read handling is actually load-bearing.
    atomic_entry_writes: bool = False


@dataclass
class BackendStats:
    """Operation counters (benchmarks and tests read these)."""

    sets_applied: int = 0
    sets_superseded: int = 0
    erases_applied: int = 0
    cas_applied: int = 0
    cas_failed: int = 0
    evictions_capacity: int = 0
    evictions_associativity: int = 0
    overflow_inserts: int = 0
    rpc_lookups: int = 0
    data_region_grows: int = 0
    index_resizes: int = 0
    repairs_applied: int = 0
    defrag_moves: int = 0


class Backend:
    """One backend task serving one shard of the cell."""

    def __init__(self, sim: Simulator, host: Host, task_name: str,
                 shard: int, placement: Placement, cell: CellConfig,
                 config: Optional[BackendConfig] = None,
                 transport: Optional[Transport] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.sim = sim
        self.host = host
        self.task_name = task_name
        self.shard = shard
        self.placement = placement
        self.cell = cell
        self.config_id = cell.config_id
        self.config = config or BackendConfig()
        self.transport = transport
        self.stats = BackendStats()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._m_up = self.metrics.gauge(
            "cliquemap_backend_up",
            "1 while the backend task is serving, 0 after stop/crash")
        self._m_up.labels(task=task_name).set(1)

        cfg = self.config
        self.index = IndexRegion(cfg.num_buckets, cfg.ways, self.config_id)
        self.data = DataRegion(cfg.data_initial_bytes, cfg.data_virtual_limit,
                               slab_bytes=cfg.slab_bytes)
        self.tombstones = tombstone.TombstoneCache(TOMBSTONE_CAPACITY)
        self.policy = make_policy(cfg.eviction_policy)
        # key_hash -> (key, value, version) for bucket-overflow spills.
        self.overflow: Dict[bytes, Tuple[bytes, bytes, VersionNumber]] = {}
        # key_hash -> key bytes for every resident entry (repair scans need
        # to hand full keys to peers; DRAM-cheap server-side heap state).
        self._keys: Dict[bytes, bytes] = {}

        self._resizing_index = False
        self._resize_waiters: List = []
        # Per-key mutexes: concurrent mutation handlers for the same key
        # must serialize (server-side mutual exclusion is exactly what the
        # RPC-based mutation path buys, §3). A locked key maps to its
        # FIFO of parked waiters' wake-ups, ``(process._on_wake, token)``.
        self._key_locks: Dict[bytes, Deque[Tuple[Callable, int]]] = {}
        self._growing_data = False
        self._grow_waiters: List = []
        self._stopped = False

        self.rpc_server = RpcServer(sim, host, f"cliquemap/{task_name}")
        self._register_handlers()
        self.endpoint = None
        if transport is not None:
            self._expose_rma()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _expose_rma(self) -> None:
        self.endpoint = self.transport.attach(self.host)
        self.endpoint.expose(self.index.window)
        self.endpoint.expose(self.data.active_window)
        if self.transport.supports_scar:
            self.endpoint.install_scar_program(
                make_scar_program(self.config.ways))
        if hasattr(self.transport, "register_message_handler"):
            self.transport.register_message_handler(
                self.host, "cliquemap-lookup", self._message_lookup)

    def _register_handlers(self) -> None:
        server = self.rpc_server
        # A restarted task's fresh tally sums into the same series.
        handled = self.metrics.adopt(
            "cliquemap_backend_rpcs_total",
            "RPCs handled by backend task and method", tally(), ("method",),
            task=self.task_name)
        for method, handler in (
                ("Info", self._handle_info),
                ("Set", self._handle_set),
                ("MultiSet", self._handle_multi_set),
                ("Erase", self._handle_erase),
                ("Cas", self._handle_cas),
                ("Lookup", self._handle_lookup),
                ("Touch", self._handle_touch),
                ("ScanSummary", self._handle_scan_summary),
                ("RepairGet", self._handle_repair_get),
                ("MigrateIn", self._handle_migrate_in),
                ("Defragment", self._handle_defragment)):
            handled[method] = 0      # every method's series exists at 0
            server.register(method,
                            self._instrumented(method, handler, handled))

    def _instrumented(self, method: str, handler, handled):
        """Wrap a handler: count it and open a per-method child span."""

        def wrapped(payload, context: HandlerContext) -> Generator:
            handled[method] += 1
            span = context.span.child(f"handler.{method.lower()}",
                                      task=self.task_name)
            try:
                return (yield from handler(payload, context))
            finally:
                span.finish()

        return wrapped

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return not self._stopped and self.host.alive

    def stop(self) -> None:
        """Graceful exit (e.g. after migrating to a spare)."""
        self._stopped = True
        self._m_up.labels(task=self.task_name).set(0)
        self.rpc_server.stop()
        if self.endpoint is not None:
            self.endpoint.revoke(self.index.window)
            self.endpoint.revoke(self.data.active_window)

    def crash(self) -> None:
        """Unplanned failure: the whole host goes down."""
        self._stopped = True
        self._m_up.labels(task=self.task_name).set(0)
        self.host.crash()

    def dram_used_bytes(self) -> int:
        """DRAM footprint: index + populated data region (Fig 3)."""
        return self.index.total_bytes + self.data.populated_bytes

    @property
    def resident_keys(self) -> int:
        return self.index.used_entries + len(self.overflow)

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------

    def _handle_info(self, payload, context: HandlerContext) -> Generator:
        """Connection-time metadata: layout, region ids, config generation."""
        yield self.host.execute(0.5e-6, self._component)
        return {
            "task": self.task_name,
            "shard": self.shard,
            "config_id": self.config_id,
            "index_region_id": self.index.window.region_id,
            "num_buckets": self.index.num_buckets,
            "ways": self.index.ways,
            "bucket_bytes": self.index.bucket_bytes,
            "data_region_id": self.data.region_id,
            "supports_scar": bool(self.transport and
                                  self.transport.supports_scar),
        }

    def _handle_set(self, payload, context: HandlerContext) -> Generator:
        key: bytes = payload["key"]
        value: bytes = payload["value"]
        version = VersionNumber.unpack(payload["version"])
        yield from self._charge_mutation_cpu(len(key) + len(value))
        applied, reason = yield from self._apply_set(key, value, version)
        if applied:
            self.stats.sets_applied += 1
        else:
            self.stats.sets_superseded += 1
        # Replies carry the serving generation so even SET-only clients
        # (which never validate bucket headers) discover config changes.
        return {"applied": applied, "reason": reason,
                "config_id": self.config_id}

    def _handle_multi_set(self, payload,
                          context: HandlerContext) -> Generator:
        """Batched SET: many client-nominated mutations in one RPC (§7.1).

        The per-RPC dispatch CPU (``SET_CPU``) is paid once; each extra
        entry costs only ``MULTI_ENTRY_CPU`` plus payload handling. Every
        entry is applied independently and reported per-entry, so one
        superseded or rejected entry never poisons its batch siblings.
        """
        entries = payload["entries"]
        total_bytes = sum(len(key) + len(value)
                          for key, value, _version in entries)
        yield self.host.execute(
            SET_CPU + MULTI_ENTRY_CPU * max(0, len(entries) - 1) +
            total_bytes / 1024.0 * PER_KILOBYTE_CPU,
            self._component)
        results = []
        for key, value, version_bytes in entries:
            applied, reason = yield from self._apply_set(
                key, value, VersionNumber.unpack(version_bytes))
            if applied:
                self.stats.sets_applied += 1
            else:
                self.stats.sets_superseded += 1
            results.append({"applied": applied, "reason": reason})
        context.response_size_override = 32 + 16 * max(1, len(entries))
        return {"results": results, "config_id": self.config_id}

    def _handle_erase(self, payload, context: HandlerContext) -> Generator:
        key: bytes = payload["key"]
        version = VersionNumber.unpack(payload["version"])
        yield from self._charge_mutation_cpu(len(key))
        yield from self._stall_if_resizing()
        key_hash = self.placement.key_hash(key)
        yield from self._lock_key(key_hash)
        try:
            where, floor = self._floor(key_hash)
            applied, reason = tombstone.arbitrate(version, floor)
            if applied:
                yield from self._remove_entry(key_hash, where)
                self.tombstones.note_erase(key_hash, version)
                self.stats.erases_applied += 1
            return {"applied": applied, "reason": reason,
                    "config_id": self.config_id}
        finally:
            self._unlock_key(key_hash)

    def _handle_cas(self, payload, context: HandlerContext) -> Generator:
        key: bytes = payload["key"]
        value: bytes = payload["value"]
        new_version = VersionNumber.unpack(payload["new_version"])
        expected = VersionNumber.unpack(payload["expected_version"])
        yield from self._charge_mutation_cpu(len(key) + len(value))
        yield from self._stall_if_resizing()
        key_hash = self.placement.key_hash(key)
        # The expected-version check and the install must be atomic under
        # the key lock: two CAS racing on the same expected version must
        # not both pass the check (that would lose one update).
        yield from self._lock_key(key_hash)
        try:
            where, floor = self._floor(key_hash)
            applied, reason = tombstone.arbitrate(new_version, floor, expected)
            if applied:
                applied, reason = yield from self._install_locked(
                    key, key_hash, value, new_version, where)
        finally:
            self._unlock_key(key_hash)
        if applied:
            self.stats.cas_applied += 1
        else:
            self.stats.cas_failed += 1
        return {"applied": applied, "reason": reason,
                "stored_version": floor.pack(),
                "config_id": self.config_id}

    def _handle_lookup(self, payload, context: HandlerContext) -> Generator:
        """Two-sided lookup: RPC fallback, WAN access, overflow hits."""
        key: bytes = payload["key"]
        yield self.host.execute(LOOKUP_CPU, self._component)
        self.stats.rpc_lookups += 1
        found = self.lookup_local(key)
        if found is None:
            return {"found": False}
        value, version = found
        context.response_size_override = len(value) + 64
        return {"found": True, "value": value, "version": version.pack()}

    def _handle_touch(self, payload, context: HandlerContext) -> Generator:
        """Ingest batched client access records to drive eviction (§4.2)."""
        records: List[bytes] = payload["key_hashes"]
        yield self.host.execute(
            TOUCH_CPU_PER_RECORD * max(1, len(records)),
            self._component)
        for key_hash in records:
            self.policy.record_access(key_hash)
        return {"ingested": len(records)}

    def _handle_scan_summary(self, payload, context: HandlerContext
                             ) -> Generator:
        """KeyHash -> version exchange for cohort repair scans (§5.4):
        :meth:`held_versions` plus its CPU charge and response size."""
        yield self.host.execute(
            SCAN_CPU_PER_ENTRY * max(1, self.resident_keys),
            self._component)
        summary = self.held_versions(payload.get("primary_shard"),
                                     payload.get("num_shards"))
        context.response_size_override = 32 * max(1, len(summary))
        return {"entries": summary}

    def _handle_repair_get(self, payload, context: HandlerContext
                           ) -> Generator:
        """Source a full KV pair for an on-demand repair."""
        yield self.host.execute(LOOKUP_CPU, self._component)
        entry = self.export_entry(payload["key_hash"])
        if entry is None:
            return {"found": False}
        key, value, packed_version = entry
        context.response_size_override = len(key) + len(value) + 64
        return {"found": True, "key": key, "value": value,
                "version": packed_version}

    def _handle_migrate_in(self, payload, context: HandlerContext
                           ) -> Generator:
        """Bulk-install entries pushed by a migrating peer or repair."""
        applied = yield from self.install_entries(payload["entries"])
        self.stats.repairs_applied += applied
        return {"applied": applied}

    def _message_lookup(self, payload):
        """Two-sided (MSG) lookup handler: woken app thread, local read.

        Returns ``(response_payload, response_bytes)`` for the Pony
        messaging layer (§6.3's MSG strategy in Fig 7)."""
        key = payload["key"]
        found = self.lookup_local(key)
        if found is None:
            return {"found": False}, 32
        value, version = found
        return ({"found": True, "key": key, "value": value,
                 "version": version.pack()}, len(value) + len(key) + 64)

    def _handle_defragment(self, payload, context: HandlerContext
                           ) -> Generator:
        """Compact sparse slabs so they can be repurposed (§4.1).

        Relocating DataEntries is safe because client-side validation
        poisons any lookup that races a move: the old bytes are freed
        (and may be overwritten) only after the IndexEntry repoints.
        """
        threshold = payload.get("occupancy_threshold", 0.5)
        moved = yield from self.defragment(threshold)
        return {"moved": moved,
                "live_slabs": self.data.allocator.live_slab_count}

    def defragment(self, occupancy_threshold: float = 0.5) -> Generator:
        """Relocate entries out of sparse slabs; returns blocks moved."""
        allocator = self.data.allocator
        # Map data offsets back to their index entries.
        entry_at: Dict[int, Tuple[int, int]] = {}
        for bucket, entry in self.index.entries():
            entry_at[entry.offset] = (bucket, entry.way)
        moved = 0
        for slab_start in allocator.sparse_slabs(occupancy_threshold):
            for offset in allocator.blocks_in_slab(slab_start):
                location = entry_at.get(offset)
                if location is None:
                    continue  # mid-mutation or orphaned; skip this pass
                bucket, way = location
                entry = self.index.read_entry(bucket, way)
                if not entry.valid or entry.offset != offset:
                    continue  # the entry moved/was evicted meanwhile
                new_offset = allocator.alloc(entry.size,
                                             exclude_slab=slab_start)
                if new_offset is None:
                    return moved  # no room to compact into
                raw = self.data.read_at(offset, entry.size)
                self.data.write_at(new_offset, raw)
                yield self.sim.delay(self.config.min_write_step)
                # Repoint, then reclaim: racing 2xR GETs of the old bytes
                # either complete (ordered-before) or fail validation
                # once the block is reused.
                self.index.write_entry(bucket, way, entry.key_hash,
                                       entry.version, self.data.region_id,
                                       new_offset, entry.size)
                self._free_block(offset)
                yield self.host.execute(1.0e-6, self._component)
                self.stats.defrag_moves += 1
                moved += 1
        return moved

    # ------------------------------------------------------------------
    # Local state machine
    # ------------------------------------------------------------------

    @property
    def _component(self) -> str:
        return f"backend:{self.task_name}"

    def _charge_mutation_cpu(self, payload_bytes: int) -> Generator:
        yield self.host.execute(
            SET_CPU +
            payload_bytes / 1024.0 * PER_KILOBYTE_CPU,
            self._component)

    def _stall_if_resizing(self) -> Generator:
        """Mutations stall during an index resize (§4.1)."""
        while self._resizing_index:
            ev = self.sim.event()
            self._resize_waiters.append(ev)
            yield ev

    def _lock_key(self, key_hash: bytes) -> Generator:
        """Take the key's mutex: ``yield from``. Every grant, the
        uncontended one too, is one zero-delay hop."""
        sim = self.sim
        proc = sim._active
        proc._token = proc._waiting_on = token = proc._token + 1
        waiters = self._key_locks.get(key_hash)
        if waiters is None:
            self._key_locks[key_hash] = deque()
            sim.call_soon(proc._on_wake, token)
        else:
            waiters.append((proc._on_wake, token))
        yield PARKED

    def _unlock_key(self, key_hash: bytes) -> None:
        waiters = self._key_locks[key_hash]
        if waiters:
            self.sim.call_soon(*waiters.popleft())
        else:
            del self._key_locks[key_hash]

    def _locate(self, key_hash: bytes):
        """``(bucket, way, entry)`` of the key at this instant: one way-scan,
        one materialised entry. ``(bucket, None, None)`` when absent."""
        bucket = self.index.bucket_for(key_hash)
        way = self.index.find_way(bucket, key_hash)
        if way is None:
            return bucket, None, None
        return bucket, way, self.index.read_entry(bucket, way)

    def _floor(self, key_hash: bytes):
        """:meth:`_locate`'s answer and the key's floor for
        :func:`tombstone.arbitrate`: index entry, overflow, tombstones."""
        where = self._locate(key_hash)
        best = self.tombstones.version_floor(key_hash)
        if where[2] is not None:
            best = max(best, where[2].version)
        spilled = self.overflow.get(key_hash)
        if spilled is not None:
            best = max(best, spilled[2])
        return where, best

    def lookup_local(self, key: bytes) -> Optional[Tuple[bytes,
                                                         VersionNumber]]:
        """Server-side lookup used by the RPC and MSG paths."""
        key_hash = self.placement.key_hash(key)
        spilled = self.overflow.get(key_hash)
        if spilled is not None and spilled[0] == key:
            return spilled[1], spilled[2]
        entry = self._locate(key_hash)[2]
        if entry is None:
            return None
        raw = self.data.read_at(entry.offset, entry.size)
        decoded = try_decode(raw)
        if decoded is None or decoded.key != key:
            return None
        return decoded.value, decoded.version

    def _iter_versions(self):
        """(key_hash, packed version) of everything resident — the 16
        bytes the index stores, which is what a scan summary ships."""
        for _bucket, _way, key_hash, packed in self.index.stored_versions():
            yield key_hash, packed
        for key_hash, (_k, _v, version) in self.overflow.items():
            yield key_hash, version.pack()

    # -- SET machinery -----------------------------------------------------

    def _apply_set(self, key: bytes, value: bytes,
                   version: VersionNumber) -> Generator:
        """Arbitrate, then install key=value at version (tearing-aware)."""
        yield from self._stall_if_resizing()
        key_hash = self.placement.key_hash(key)
        yield from self._lock_key(key_hash)
        try:
            where, floor = self._floor(key_hash)
            applied, reason = tombstone.arbitrate(version, floor)
            if applied:
                applied, reason = yield from self._install_locked(
                    key, key_hash, value, version, where)
            return applied, reason
        finally:
            self._unlock_key(key_hash)

    def _install_locked(self, key: bytes, key_hash: bytes, value: bytes,
                        version: VersionNumber, where) -> Generator:
        """Install at ``where``, :meth:`_floor`'s answer under the key lock
        with no ``yield`` since. What runs after a ``yield`` below (the
        free-way scan, ``write_entry``'s validity test) reads the index
        again: eviction, promotion and index resize do not take its lock."""
        bucket, way, entry = where
        size = entry_size(len(key), len(value))

        if way is not None:
            block = self.data.allocator.block_size(entry.offset) \
                if self.data.allocator.is_allocated(entry.offset) else 0
            if block >= size:
                # In-place update: the classic tear window (§5.3, Fig 5).
                yield from self._write_entry_bytes(entry.offset, key, value,
                                                   version, key_hash)
                self.index.write_entry(bucket, way, key_hash, version,
                                       self.data.region_id, entry.offset,
                                       size)
                self._finish_set(key_hash, key)
                return True, "ok"
            # Size changed: allocate fresh, then swap the pointer.
            offset = yield from self._allocate_with_eviction(size, key_hash)
            if offset is None:
                return False, "out-of-memory"
            yield from self._write_entry_bytes(offset, key, value, version,
                                               key_hash)
            old_offset = entry.offset
            self.index.write_entry(bucket, way, key_hash, version,
                                   self.data.region_id, offset, size)
            self._free_block(old_offset)
            self._finish_set(key_hash, key)
            return True, "ok"

        # New key: need a free way and a data block.
        offset = yield from self._allocate_with_eviction(size, key_hash)
        if offset is None:
            return False, "out-of-memory"
        yield from self._write_entry_bytes(offset, key, value, version,
                                           key_hash)
        free_way = self.index.find_free_way(bucket)
        if free_way is None:
            free_way = yield from self._resolve_associativity_conflict(
                bucket, key_hash)
        if free_way is None:
            # Spill to the overflow store behind the bucket's overflow bit.
            self._free_block(offset)
            return self._spill_to_overflow(bucket, key_hash, key, value,
                                           version)
        self.index.write_entry(bucket, free_way, key_hash, version,
                               self.data.region_id, offset, size)
        self.policy.record_insert(key_hash)
        self._finish_set(key_hash, key)
        self._maybe_resize_index()
        return True, "ok"

    def _finish_set(self, key_hash: bytes, key: bytes) -> None:
        self._keys[key_hash] = key
        self.tombstones.forget(key_hash)
        self.overflow.pop(key_hash, None)
        self._maybe_grow_data_region()

    def _write_entry_bytes(self, offset: int, key: bytes, value: bytes,
                           version: VersionNumber,
                           key_hash: bytes) -> Generator:
        """Write body, wait, then checksum — the real tear window."""
        body, checksum = encode_entry_parts(key, value, version, key_hash)
        step = max(self.config.min_write_step,
                   len(body) / WRITE_BYTES_PER_SEC)
        if self.config.atomic_entry_writes:
            self.data.write_at(offset, body + checksum)
            yield self.sim.delay(step)
            return
        self.data.write_at(offset, body)
        yield self.sim.delay(step)
        self.data.write_at(offset + len(body), checksum)

    def _allocate_with_eviction(self, size: int,
                                incoming_hash: bytes) -> Generator:
        """Allocate a data block: grow the region if virtual headroom
        remains (§4.1), evicting only under a true capacity conflict
        (§4.2)."""
        offset = self.data.allocator.alloc(size)
        while offset is None:
            grown = yield from self._await_growth()
            if not grown:
                break
            offset = self.data.allocator.alloc(size)
        if offset is not None:
            return offset
        victims = self.policy.victims()
        for _attempt in range(64):
            victim = next(victims, None)
            if victim is None:
                break
            if victim == incoming_hash:
                continue
            yield from self._remove_entry(victim)
            self.stats.evictions_capacity += 1
            offset = self.data.allocator.alloc(size)
            if offset is not None:
                return offset
        return self.data.allocator.alloc(size)

    def _resolve_associativity_conflict(self, bucket: int,
                                        incoming_hash: bytes) -> Generator:
        """Evict within the bucket to make the new KV RMA-accessible."""
        if self.config.overflow_rpc_fallback and \
                len(self.overflow) < OVERFLOW_CAPACITY:
            return None  # caller spills instead of evicting
        candidates = [self.index.read_entry(bucket, w)
                      for w in range(self.index.ways)]
        candidates = [e for e in candidates if e.valid]
        if not candidates:
            return None
        victim = min(candidates, key=lambda e: e.version)
        yield from self._remove_entry(victim.key_hash)
        self.stats.evictions_associativity += 1
        return self.index.find_free_way(bucket)

    def _spill_to_overflow(self, bucket: int, key_hash: bytes, key: bytes,
                           value: bytes, version: VersionNumber):
        if not self.config.overflow_rpc_fallback or \
                len(self.overflow) >= OVERFLOW_CAPACITY:
            return False, "bucket-full"
        self.overflow[key_hash] = (key, value, version)
        self._keys[key_hash] = key
        self.index.set_overflow(bucket, True)
        self.stats.overflow_inserts += 1
        self.tombstones.forget(key_hash)
        return True, "overflow"

    def _remove_entry(self, key_hash: bytes, where=None) -> Generator:
        """Eviction/erase procedure: nullify the IndexEntry, then reclaim.

        The order (pointer first, data second) plus the combined checksum
        means in-flight 2xR GETs either complete (ordered-before) or
        poison themselves (§4.2). A caller that just located the key
        (:meth:`_locate`, no ``yield`` since) hands the answer in.
        """
        self.overflow.pop(key_hash, None)
        bucket, way, entry = where or self._locate(key_hash)
        if way is not None:
            self.index.clear_entry(bucket, way)
            yield self.sim.delay(self.config.min_write_step)
            self._free_block(entry.offset)
            yield from self._maybe_promote_overflow(bucket)
        self.policy.record_remove(key_hash)
        self._keys.pop(key_hash, None)

    def _maybe_promote_overflow(self, bucket: int) -> Generator:
        """Re-install a spilled key into a freed slot of its bucket,
        restoring its RMA-accessibility (the overflow store serves only
        the slower RPC fallback path, §4.2)."""
        for key_hash, (key, value, version) in list(self.overflow.items()):
            if self.index.bucket_for(key_hash) != bucket:
                continue
            way = self.index.find_free_way(bucket)
            if way is None:
                return
            size = entry_size(len(key), len(value))
            offset = self.data.allocator.alloc(size)
            if offset is None:
                return  # capacity-bound; stays in overflow
            yield from self._write_entry_bytes(offset, key, value, version,
                                               key_hash)
            self.index.write_entry(bucket, way, key_hash, version,
                                   self.data.region_id, offset, size)
            self.overflow.pop(key_hash, None)
            self.policy.record_insert(key_hash)
        # Clear the overflow bit once nothing in this bucket is spilled.
        if not any(self.index.bucket_for(kh) == bucket
                   for kh in self.overflow):
            self.index.set_overflow(bucket, False)

    def _free_block(self, offset: int) -> None:
        if self.data.allocator.is_allocated(offset):
            self.data.allocator.free(offset)

    def _await_growth(self) -> Generator:
        """Kick (or join) an in-flight data-region grow; False when the
        arena is already at its virtual limit."""
        if self.data.populated_bytes >= self.data.arena.virtual_limit:
            return False
        if not self._growing_data and not self._start_grow():
            return False
        waiter = self.sim.event()
        self._grow_waiters.append(waiter)
        yield waiter
        return True

    # -- reshaping -----------------------------------------------------------

    def _maybe_grow_data_region(self) -> None:
        """High-watermark growth, triggered by RPC work, done async (§4.1)."""
        allocator = self.data.allocator
        if self._growing_data:
            return
        if allocator.utilization_of_populated() < self.config.grow_watermark \
                and allocator.headroom_bytes >= allocator.slab_bytes:
            return
        self._start_grow()

    def _start_grow(self) -> bool:
        """Start one async grow by ``GROW_FACTOR``, capped at the virtual
        limit; False when the arena has no room left to grow into."""
        new_size = min(int(self.data.populated_bytes * GROW_FACTOR),
                       self.data.arena.virtual_limit)
        if new_size <= self.data.populated_bytes:
            return False
        self._growing_data = True
        proc = self.sim.process(self._grow_data_region(new_size),
                                name=f"{self.task_name}:grow")
        proc.defused = True
        return True

    def _grow_data_region(self, new_size: int) -> Generator:
        grow_bytes = new_size - self.data.populated_bytes
        # Kernel memory management + registration, off the critical path.
        yield self.sim.delay(registration_time(grow_bytes))
        if not self.alive:
            self._growing_data = False
            self._fire_grow_waiters()
            return
        new_window = self.data.grow(new_size)
        if self.endpoint is not None:
            self.endpoint.expose(new_window)
        self.stats.data_region_grows += 1
        self._growing_data = False
        self._fire_grow_waiters()
        # Retire the superseded window after a grace period. First rewrite
        # any IndexEntries still naming it so fresh bucket fetches carry
        # pointers into the live window (offsets are arena-absolute, so
        # only the region id changes); clients with stale buckets still
        # converge via their own retry path.
        yield self.sim.delay(OLD_WINDOW_GRACE)
        retired = self.data.retire_oldest_window()
        if retired is not None:
            yield from self._refresh_stale_pointers(retired.region_id)
            if self.endpoint is not None:
                self.endpoint.revoke(retired)

    def _fire_grow_waiters(self) -> None:
        waiters, self._grow_waiters = self._grow_waiters, []
        for waiter in waiters:
            waiter.succeed()

    def _refresh_stale_pointers(self, old_region_id: int) -> Generator:
        """Repoint IndexEntries from a superseded window to the live one."""
        rewritten = 0
        for bucket, entry in list(self.index.entries()):
            if entry.region_id != old_region_id:
                continue
            self.index.write_entry(bucket, entry.way, entry.key_hash,
                                   entry.version, self.data.region_id,
                                   entry.offset, entry.size)
            rewritten += 1
            if rewritten % 64 == 0:
                yield self.host.execute(2e-6, self._component)
        if rewritten % 64:
            yield self.host.execute(2e-6, self._component)

    def _maybe_resize_index(self) -> None:
        if self._resizing_index:
            return
        if self.index.load_factor < self.config.index_resize_load_factor:
            return
        self._resizing_index = True
        proc = self.sim.process(self._resize_index(),
                                name=f"{self.task_name}:index-resize")
        proc.defused = True

    def _resize_index(self) -> Generator:
        """Upsize the index: build, populate, revoke old region (§4.1)."""
        old = self.index
        new = IndexRegion(old.num_buckets * INDEX_RESIZE_MULTIPLIER,
                          old.ways, self.config_id)
        yield self.sim.delay(
            registration_time(new.total_bytes))
        for _bucket, entry in old.entries():
            bucket = new.bucket_for(entry.key_hash)
            way = new.find_free_way(bucket)
            if way is None:
                continue  # extraordinarily unlikely after doubling
            new.write_entry(bucket, way, entry.key_hash, entry.version,
                            entry.region_id, entry.offset, entry.size)
        # Spilled keys stay in the overflow store; their (new) buckets must
        # carry the overflow bit so clients keep trying the RPC fallback.
        for key_hash in self.overflow:
            new.set_overflow(new.bucket_for(key_hash), True)
        self.index = new
        if self.endpoint is not None:
            self.endpoint.revoke(old.window)   # in-flight RMAs now fail
            self.endpoint.expose(new.window)
        self.stats.index_resizes += 1
        self._resizing_index = False
        waiters, self._resize_waiters = self._resize_waiters, []
        for ev in waiters:
            ev.succeed()

    # ------------------------------------------------------------------
    # Migration & maintenance support (§6.1)
    # ------------------------------------------------------------------

    def held_versions(self, primary: Optional[int] = None,
                      num_shards: Optional[int] = None) -> Dict[bytes, bytes]:
        """``{key_hash: packed version}`` resident for ``primary`` (all
        if ``None``): the handoff plane's *summarize* (ARCHITECTURE §4).

        ``num_shards`` evaluates ownership under a different modulus
        than this backend's own placement — resize backfill asks
        old-layout tasks "what do you hold that shard *i* of the target
        layout owns" this way.
        """
        num_shards = num_shards or self.placement.num_shards
        return {key_hash: packed
                for key_hash, packed in self._iter_versions()
                if primary is None
                or primary_for(key_hash, num_shards) == primary}

    def export_entry(self, key_hash: bytes
                     ) -> Optional[Tuple[bytes, bytes, bytes]]:
        """The resident ``(key, value, packed version)`` for a KeyHash,
        or ``None`` — the plane's *export* verb."""
        key = self._keys.get(key_hash)
        found = None if key is None else self.lookup_local(key)
        if found is None:
            return None
        return key, found[0], found[1].pack()

    def install_entries(self, entries) -> Generator:
        """Install ``(key, value, packed version)`` triples under version
        arbitration; returns how many applied — the plane's *install*."""
        applied = 0
        for key, value, packed_version in entries:
            ok, _reason = yield from self._apply_set(
                key, value, VersionNumber.unpack(packed_version))
            applied += ok
        return applied

    def snapshot_entries(self) -> List[Tuple[bytes, bytes, bytes]]:
        """All resident (key, value, packed-version) tuples."""
        exported = map(self.export_entry, list(self._keys))
        return [entry for entry in exported if entry is not None]

    def purge_nonresident(self, placement: Placement,
                          shard: int) -> Generator:
        """Drop every entry this task does not own while serving
        ``shard`` under ``placement``; returns the number purged.

        Run after a resize cutover: survivors otherwise keep stale
        copies of key ranges that moved to other cohorts, and those
        copies would never again be repaired or mutated (repair scans
        and client quorums only visit the owning cohort). Purged via the
        standard removal procedure, so racing RMA reads poison
        themselves instead of observing freed bytes.
        """
        owned = set(placement.primaries_held_by(shard))
        purged = 0
        for key_hash, _version in list(self._iter_versions()):
            if primary_for(key_hash, placement.num_shards) in owned:
                continue
            yield from self._lock_key(key_hash)
            try:
                yield from self._remove_entry(key_hash)
                self.tombstones.forget(key_hash)
            finally:
                self._unlock_key(key_hash)
            purged += 1
            if purged % 64 == 0:
                yield self.host.execute(2e-6, self._component)
        return purged

    def adopt_config_id(self, config_id: int) -> None:
        """Stamp a new configuration generation into every bucket header,
        which is how clients discover in-flight migrations (§6.1)."""
        self.config_id = config_id
        self.index.set_config_id(config_id)
