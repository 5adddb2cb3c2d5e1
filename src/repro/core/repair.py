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

It is also the wire side of the *handoff plane* (ARCHITECTURE §4):
:class:`HandoffStub` is the one sender of ``MigrateIn`` (repair, planned
migration, the corpus loader) and :meth:`RepairScanner.recover_from` the
one summary-diff pull (restart recovery, resize backfill).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..rpc import Principal, RpcError, connect as rpc_connect
from ..sim import Simulator
from ..telemetry import tally
from .errors import CliqueMapError
from .truetime import TrueTime
from .version import VersionFactory, VersionNumber

# Client-id space for backend-originated repair versions; keeps them
# disjoint from application clients.
REPAIR_CLIENT_ID_BASE = 1 << 24

REPAIR_RPC_DEADLINE = 50e-3   # every repair / resize-backfill RPC
HANDOFF_BATCH = 64            # entries per MigrateIn RPC, for every mover

#: A resident entry in flight: (key, value, packed version).
Entry = Tuple[bytes, bytes, bytes]


class HandoffStub:
    """The handoff plane's peer stub: one deadline, one principal, one
    channel per backend task (re-dialled when the task is a new
    incarnation). A failed call tells ``on_error(method)`` and returns
    ``None``: something reconciles the gap later, but never silently."""

    def __init__(self, sim: Simulator, cell, host, principal: str,
                 deadline: float, on_error: Callable[[str], None],
                 component: str = "rpc-client"):
        self.sim = sim
        self.cell = cell          # the Cell: resolves task -> Backend
        self.host = host
        self.principal = Principal(principal)
        self.deadline = deadline
        self.on_error = on_error
        self.component = component
        self._channels: Dict[str, object] = {}

    def call(self, task: str, method: str, payload: dict,
             request_size: Optional[int] = None) -> Generator:
        peer = self.cell.backend_by_task(task)
        channel = self._channels.get(task)
        if channel is None or channel.server is not peer.rpc_server:
            channel = self._channels[task] = rpc_connect(
                self.sim, self.cell.fabric, self.host, peer.rpc_server,
                self.principal, client_component=self.component)
        try:
            return (yield from channel.call(method, payload,
                                            deadline=self.deadline,
                                            request_size=request_size))
        except RpcError:
            self.on_error(method)
            return None

    def install(self, task: str, entries: List[Entry]) -> Generator:
        """Push ``entries`` to ``task``, :data:`HANDOFF_BATCH` per
        ``MigrateIn``; returns how many the peer applied."""
        applied = 0
        for at in range(0, len(entries), HANDOFF_BATCH):
            chunk = entries[at:at + HANDOFF_BATCH]
            reply = yield from self.call(
                task, "MigrateIn", {"entries": chunk},
                request_size=sum(len(k) + len(v) + 32 for k, v, _ in chunk))
            if reply is not None:
                applied += reply["applied"]
        return applied


@dataclass
class RepairConfig:
    """Scanner cadence."""

    scan_interval: float = 10.0          # tens of seconds typical (§5.4)
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.scan_interval <= 0:
            raise CliqueMapError(
                f"RepairConfig.scan_interval must be > 0, "
                f"got {self.scan_interval!r}")


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
        # Counts no registry family carries (see ``stats``).
        self._counts = {"scans": 0, "dirty_quorums_found": 0,
                        "keys_repaired": 0, "restart_recoveries": 0,
                        "keys_recovered": 0}
        self.versions = VersionFactory(
            REPAIR_CLIENT_ID_BASE + backend.shard, TrueTime(sim))
        self._proc = None
        # Repair RPC failures are retried by later scans, but they are
        # no longer silent: every one is tallied by method.
        self._rpc_errors = cell.metrics.adopt(
            "cliquemap_repair_rpc_errors_total",
            "Repair-plane RPCs that failed, by method", tally(), ("method",))
        self.peers = HandoffStub(
            sim, cell, backend.host, f"repair@{backend.task_name}",
            REPAIR_RPC_DEADLINE, self._count_rpc_error,
            component=f"repair:{backend.task_name}")

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

    @property
    def stats(self) -> RepairStats:
        """Built per read; ``rpc_errors`` is derived from its tally."""
        return RepairStats(rpc_errors=sum(self._rpc_errors.values()),
                           **self._counts)

    def _count_rpc_error(self, method: str) -> None:
        self._rpc_errors[method] += 1

    # -- summarize and export, from a peer or from the co-located backend ---

    def _summary(self, task: str, primary: Optional[int],
                 num_shards: Optional[int] = None) -> Generator:
        """What ``task`` holds for ``primary`` (``None``: for any) as
        ``{key_hash: version}``; ``None`` if it did not answer.
        ``num_shards``, when given, rides the wire and replaces the
        peer's own modulus."""
        if task == self.backend.task_name:
            packed = self.backend.held_versions(primary, num_shards)
        else:
            payload = {"primary_shard": primary}
            if num_shards is not None:
                payload["num_shards"] = num_shards
            reply = yield from self.peers.call(task, "ScanSummary", payload)
            if reply is None:
                return None
            packed = reply["entries"]
        return {kh: VersionNumber.unpack(vb) for kh, vb in packed.items()}

    def _fetch(self, key_hash: bytes, source_task: str) -> Generator:
        """The :data:`Entry` ``source_task`` holds for a KeyHash, or None."""
        if source_task == self.backend.task_name:
            return self.backend.export_entry(key_hash)
        reply = yield from self.peers.call(
            source_task, "RepairGet", {"key_hash": key_hash})
        if reply is None or not reply.get("found"):
            return None
        return reply["key"], reply["value"], reply["version"]

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
        self._counts["scans"] += 1
        # Every primary shard whose keys this backend stores.
        for primary in self.backend.placement.primaries_held_by(
                self.backend.shard):
            yield from self._scan_primary(primary)

    def _scan_primary(self, primary: int) -> Generator:
        tasks = self._cohort_tasks(self.backend.placement, primary)
        summaries: Dict[str, Dict[bytes, VersionNumber]] = {}
        for task in tasks:
            summary = yield from self._summary(task, primary)
            if summary is None:
                return  # peer unreachable; skip this round
            summaries[task] = summary

        for key_hash, source_task in self._find_dirty(summaries):
            self._counts["dirty_quorums_found"] += 1
            yield from self._repair_key(key_hash, source_task, tasks)

    def _cohort_tasks(self, placement, primary: int) -> List[str]:
        return [self.cell.task_for_shard(s)
                for s in placement.shards_for_primary(primary)]

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
        entry = yield from self._fetch(key_hash, source_task)
        if entry is None:
            return
        key, value, _old_version = entry
        fresh = [(key, value, self.versions.next().pack())]
        for task in replica_tasks:
            if task == self.backend.task_name:
                # No RPC, so not one of the backend's ``repairs_applied``.
                yield from self.backend.install_entries(fresh)
            else:
                yield from self.peers.install(task, fresh)
        self._counts["keys_repaired"] += 1

    # -- the one pull (restarts, resize backfill) -----------------------------

    def recover_from(self, peer_tasks: Optional[List[str]] = None,
                     placement=None, shard: Optional[int] = None) -> Generator:
        """Pull every entry this backend should hold — serving ``shard``
        under ``placement`` (defaults: its own) — that a peer holds at a
        newer version or that is missing locally. Returns the number of
        entries installed.

        ``peer_tasks=None`` asks each primary's own cohort: restart
        recovery. Resize backfill names the *old* cohort and the target
        ``placement``; an explicit placement is what puts ``num_shards``
        on the wire, so peers filter under the target modulus. Installs
        keep the source versions and are arbitrated by the backend, so
        re-running a sweep is idempotent — the converging-handoff
        property resize cutover relies on. The pull streams (fetch,
        flush at :data:`HANDOFF_BATCH`, continue): live writers race it.
        """
        num_shards = None if placement is None else placement.num_shards
        placement = placement or self.backend.placement
        shard = self.backend.shard if shard is None else shard
        me = self.backend.task_name
        have = yield from self._summary(me, None)
        installed = 0
        for primary in placement.primaries_held_by(shard):
            # key_hash -> (newest version any peer reported, that peer)
            newest: Dict[bytes, Tuple[VersionNumber, str]] = {}
            for task in (peer_tasks if peer_tasks is not None
                         else self._cohort_tasks(placement, primary)):
                if task == me:
                    continue
                summary = yield from self._summary(task, primary, num_shards)
                for kh, version in (summary or {}).items():
                    if kh not in newest or version > newest[kh][0]:
                        newest[kh] = version, task
            batch: List[Entry] = []
            for key_hash, (version, task) in newest.items():
                mine = have.get(key_hash)
                if mine is not None and mine >= version:
                    continue
                entry = yield from self._fetch(key_hash, task)
                if entry is None:
                    continue
                batch.append(entry)
                if len(batch) >= HANDOFF_BATCH:
                    installed += yield from self._keep(batch)
            installed += yield from self._keep(batch)
        return installed

    def _keep(self, batch: List[Entry]) -> Generator:
        """Install a pulled batch locally and empty it; returns its size."""
        count = len(batch)
        yield from self.backend.install_entries(batch)
        self._counts["keys_recovered"] += count
        batch.clear()
        return count

    def restart_recovery(self) -> Generator:
        """En-masse repair after an unplanned restart: pull everything this
        shard should hold from the two healthy cohort members."""
        self._counts["restart_recoveries"] += 1
        return (yield from self.recover_from())
