"""Quorum repairs: cohort scans, on-demand repair, restart recovery (§5.4).

A key with only two agreeing backends is a *dirty quorum* — one more
failure degrades it to an inquorate state (a miss). To bound that risk,
backends independently scan their cohorts for missing or stale KV pairs
(detected via KeyHash/version exchange to minimize overhead) and repair
key-by-key: source the value from a quorum member, then re-install it at a
fresh VersionNumber on *all* replicas so the cohort settles on a single
consistent view.

The same machinery runs en masse when a backend restarts after a crash:
the restarted (empty) backend requests repairs from its two healthy
cohort members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from ..rpc import Principal, RpcError, connect as rpc_connect
from ..sim import Simulator
from .errors import CliqueMapError
from .truetime import TrueTime
from .version import VersionFactory, VersionNumber

# Client-id space for backend-originated repair versions; keeps them
# disjoint from application clients.
REPAIR_CLIENT_ID_BASE = 1 << 24


@dataclass
class RepairConfig:
    """Scanner cadence and limits."""

    scan_interval: float = 10.0          # tens of seconds typical (§5.4)
    rpc_deadline: float = 50e-3
    batch_size: int = 64                 # repair installs per MigrateIn RPC
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.scan_interval <= 0:
            raise CliqueMapError(
                f"RepairConfig.scan_interval must be > 0, "
                f"got {self.scan_interval!r}")
        if self.rpc_deadline <= 0:
            raise CliqueMapError(
                f"RepairConfig.rpc_deadline must be > 0, "
                f"got {self.rpc_deadline!r}")
        if self.batch_size < 1:
            raise CliqueMapError(
                f"RepairConfig.batch_size must be >= 1, "
                f"got {self.batch_size!r}")


@dataclass
class RepairStats:
    scans: int = 0
    dirty_quorums_found: int = 0
    keys_repaired: int = 0
    restart_recoveries: int = 0
    keys_recovered: int = 0
    rpc_errors: int = 0          # repair RPCs that failed (no longer silent)


class RepairScanner:
    """The repair process co-located with one backend task."""

    def __init__(self, sim: Simulator, cell, backend,
                 config: Optional[RepairConfig] = None):
        self.sim = sim
        self.cell = cell          # the Cell: resolves shard -> Backend
        self.backend = backend
        self.config = config or RepairConfig()
        self.stats = RepairStats()
        self._channels: Dict[str, object] = {}
        self.versions = VersionFactory(
            REPAIR_CLIENT_ID_BASE + backend.shard,
            TrueTime(sim))
        self._proc = None
        # Repair RPC failures are retried by later scans, but they are
        # no longer silent: every one is counted by method.
        registry = getattr(cell, "metrics", None)
        self._m_rpc_errors = registry.counter(
            "cliquemap_repair_rpc_errors_total",
            "Repair-plane RPCs that failed, by method"
        ) if registry is not None else None

    # -- wiring -----------------------------------------------------------

    def start(self) -> None:
        if not self.config.enabled or self._proc is not None:
            return
        self._proc = self.sim.process(self._scan_loop(),
                                      name=f"repair:{self.backend.task_name}")
        self._proc.defused = True

    def stop(self) -> None:
        """Stop the periodic scan loop (a draining task leaves the
        cell; its scanner must not keep repairing under a stale
        placement)."""
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt()
        self._proc = None

    def _count_rpc_error(self, method: str) -> None:
        self.stats.rpc_errors += 1
        if self._m_rpc_errors is not None:
            self._m_rpc_errors.labels(method=method).inc()

    def _channel_to(self, task: str):
        peer = self.cell.backend_by_task(task)
        channel = self._channels.get(task)
        if channel is None or channel.server is not peer.rpc_server:
            channel = rpc_connect(
                self.sim, self.cell.fabric, self.backend.host,
                peer.rpc_server, Principal(f"repair@{self.backend.task_name}"),
                client_component=f"repair:{self.backend.task_name}")
            self._channels[task] = channel
        return channel

    # -- periodic cohort scanning -------------------------------------------

    def _scan_loop(self) -> Generator:
        while True:
            yield self.sim.delay(self.config.scan_interval)
            if not self.backend.alive:
                return
            try:
                yield from self.scan_once()
            except RpcError:
                continue  # a peer was down mid-scan; next interval retries

    def scan_once(self) -> Generator:
        """One full cohort scan + repairs for every dirty quorum found."""
        self.stats.scans += 1
        placement = self.backend.placement
        # Every primary shard whose keys this backend stores.
        primaries = [(self.backend.shard - back) % placement.num_shards
                     for back in range(placement.replication)]
        for primary in primaries:
            yield from self._scan_primary(primary)

    def _scan_primary(self, primary: int) -> Generator:
        placement = self.backend.placement
        replica_shards = placement.shards_for_primary(primary)
        tasks = [self.cell.task_for_shard(s) for s in replica_shards]

        summaries: Dict[str, Dict[bytes, VersionNumber]] = {}
        for task in tasks:
            if task == self.backend.task_name:
                summaries[task] = {
                    kh: VersionNumber.unpack(vb)
                    for kh, vb in self.backend._iter_versions()
                    if placement.primary_shard(kh) == primary}
                continue
            channel = self._channel_to(task)
            try:
                reply = yield from channel.call(
                    "ScanSummary", {"primary_shard": primary},
                    deadline=self.config.rpc_deadline)
            except RpcError:
                self._count_rpc_error("ScanSummary")
                return  # peer unreachable; skip this round
            summaries[task] = {
                kh: VersionNumber.unpack(vb)
                for kh, vb in reply["entries"].items()}

        dirty = self._find_dirty(summaries)
        for key_hash, source_task in dirty:
            self.stats.dirty_quorums_found += 1
            yield from self._repair_key(key_hash, source_task, tasks)

    def _find_dirty(self, summaries: Dict[str, Dict[bytes, VersionNumber]]
                    ) -> List:
        """Keys where the replicas disagree, with a quorum-source task."""
        # First-seen order: a set of bytes would follow the hash seed.
        all_hashes = dict.fromkeys(
            kh for entries in summaries.values() for kh in entries)
        dirty = []
        for key_hash in all_hashes:
            votes: Dict[Optional[VersionNumber], List[str]] = {}
            for task, entries in summaries.items():
                votes.setdefault(entries.get(key_hash), []).append(task)
            if len(votes) == 1:
                continue  # unanimous: clean
            # Source from the highest version present anywhere.
            best_version = max(v for v in votes if v is not None)
            dirty.append((key_hash, votes[best_version][0]))
        return dirty

    # -- key-by-key repair -----------------------------------------------------

    def _repair_key(self, key_hash: bytes, source_task: str,
                    replica_tasks: List[str]) -> Generator:
        """Fetch the datum, re-install everywhere at a new version (§5.4)."""
        kv = yield from self._fetch_kv(key_hash, source_task)
        if kv is None:
            return
        key, value, _old_version = kv
        new_version = self.versions.next()
        entry = (key, value, new_version.pack())
        for task in replica_tasks:
            yield from self._install(task, [entry])
        self.stats.keys_repaired += 1

    def _fetch_kv(self, key_hash: bytes, source_task: str) -> Generator:
        if source_task == self.backend.task_name:
            key = self.backend._keys.get(key_hash)
            if key is None:
                return None
            found = self.backend.lookup_local(key)
            if found is None:
                return None
            return key, found[0], found[1]
        channel = self._channel_to(source_task)
        try:
            reply = yield from channel.call(
                "RepairGet", {"key_hash": key_hash},
                deadline=self.config.rpc_deadline)
        except RpcError:
            self._count_rpc_error("RepairGet")
            return None
        if not reply.get("found"):
            return None
        return (reply["key"], reply["value"],
                VersionNumber.unpack(reply["version"]))

    def _install(self, task: str, entries) -> Generator:
        size = sum(len(k) + len(v) + 32 for k, v, _ in entries)
        if task == self.backend.task_name:
            for key, value, version_bytes in entries:
                yield from self.backend._apply_set(
                    key, value, VersionNumber.unpack(version_bytes))
            return
        channel = self._channel_to(task)
        try:
            yield from channel.call("MigrateIn", {"entries": entries},
                                    deadline=self.config.rpc_deadline,
                                    request_size=size)
        except RpcError:
            # The peer will be caught by a later scan — but the failure
            # is counted, not swallowed silently.
            self._count_rpc_error("MigrateIn")

    # -- pull-based recovery (restarts, resize backfill) ----------------------

    def recover_from(self, peer_tasks: List[str],
                     placement=None, shard: Optional[int] = None
                     ) -> Generator:
        """Pull every entry this backend should hold — serving ``shard``
        under ``placement`` (defaults: its own) — that a peer holds at a
        newer version or that is missing locally. Returns the number of
        entries installed.

        This is restart recovery generalized for elastic cells: during a
        resize the new replica pulls its key ranges from the *old*
        cohort, filtering peer summaries under the target modulus (the
        ``num_shards`` override on ScanSummary). Installs keep the
        source versions and are arbitrated by the backend, so re-running
        a sweep is idempotent — the converging-handoff property resize
        cutover relies on.
        """
        placement = placement if placement is not None \
            else self.backend.placement
        shard = self.backend.shard if shard is None else shard
        primaries = [(shard - back) % placement.num_shards
                     for back in range(placement.replication)]
        have: Dict[bytes, VersionNumber] = {
            kh: VersionNumber.unpack(vb)
            for kh, vb in self.backend._iter_versions()}
        installed = 0
        for primary in primaries:
            merged: Dict[bytes, VersionNumber] = {}
            source: Dict[bytes, str] = {}
            for task in peer_tasks:
                if task == self.backend.task_name:
                    continue
                channel = self._channel_to(task)
                try:
                    reply = yield from channel.call(
                        "ScanSummary",
                        {"primary_shard": primary,
                         "num_shards": placement.num_shards},
                        deadline=self.config.rpc_deadline)
                except RpcError:
                    self._count_rpc_error("ScanSummary")
                    continue
                for kh, vb in reply["entries"].items():
                    version = VersionNumber.unpack(vb)
                    if kh not in merged or version > merged[kh]:
                        merged[kh] = version
                        source[kh] = task
            batch = []
            for key_hash, version in merged.items():
                mine = have.get(key_hash)
                if mine is not None and mine >= version:
                    continue
                kv = yield from self._fetch_kv(key_hash, source[key_hash])
                if kv is None:
                    continue
                key, value, src_version = kv
                batch.append((key, value, src_version.pack()))
                if len(batch) >= self.config.batch_size:
                    yield from self._install(self.backend.task_name, batch)
                    installed += len(batch)
                    batch = []
            if batch:
                yield from self._install(self.backend.task_name, batch)
                installed += len(batch)
        self.stats.keys_recovered += installed
        return installed

    # -- restart recovery --------------------------------------------------------

    def restart_recovery(self) -> Generator:
        """En-masse repair after an unplanned restart: pull everything this
        shard should hold from the two healthy cohort members."""
        self.stats.restart_recoveries += 1
        placement = self.backend.placement
        primaries = [(self.backend.shard - back) % placement.num_shards
                     for back in range(placement.replication)]
        for primary in primaries:
            replica_shards = placement.shards_for_primary(primary)
            peer_tasks = [self.cell.task_for_shard(s)
                          for s in replica_shards
                          if self.cell.task_for_shard(s) !=
                          self.backend.task_name]
            merged: Dict[bytes, VersionNumber] = {}
            source: Dict[bytes, str] = {}
            for task in peer_tasks:
                channel = self._channel_to(task)
                try:
                    reply = yield from channel.call(
                        "ScanSummary", {"primary_shard": primary},
                        deadline=self.config.rpc_deadline)
                except RpcError:
                    continue
                for kh, vb in reply["entries"].items():
                    version = VersionNumber.unpack(vb)
                    if kh not in merged or version > merged[kh]:
                        merged[kh] = version
                        source[kh] = task
            batch = []
            for key_hash, version in merged.items():
                kv = yield from self._fetch_kv(key_hash, source[key_hash])
                if kv is None:
                    continue
                key, value, src_version = kv
                batch.append((key, value, src_version.pack()))
                if len(batch) >= self.config.batch_size:
                    yield from self._install(self.backend.task_name, batch)
                    self.stats.keys_recovered += len(batch)
                    batch = []
            if batch:
                yield from self._install(self.backend.task_name, batch)
                self.stats.keys_recovered += len(batch)
