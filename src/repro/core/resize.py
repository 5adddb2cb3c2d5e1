"""Online cell resize: grow/shrink shard count under live traffic.

Production CliqueMap resizes cells while they serve (§6.1): capacity is
added or returned without failing a request. The
:class:`ResizeController` (a sibling of
:class:`~repro.core.maintenance.MaintenanceController`) executes a
key-range handoff in phases:

1. **prepare** — joining backend tasks are created (grow) and a new
   configuration generation is CAS-published carrying the *dual
   assignment*: the authoritative layout stays frozen (GETs keep their
   quorum on the old cohort) while ``migrating_to`` names the task that
   will serve each target-layout shard. Every backend stamps the new
   generation into its bucket headers, so clients discover the resize
   through normal response validation, rebuild their views, and start
   dual-writing: SETs land on the old cohort (authoritative for acks)
   *and* are shadowed onto the target cohort.
2. **backfill** — converging repair sweeps ride the RPC plane: every
   task in the target layout pulls the entries its new primaries own
   from every old-layout task, via the handoff plane's one pull,
   :meth:`~repro.core.repair.RepairScanner.recover_from` (ScanSummary
   version diff, RepairGet, version-arbitrated installs — re-running a
   sweep is idempotent). Sweeps repeat until one copies nothing new.
3. **cutover** — the final layout is CAS-published (``num_shards``
   changes, ``shard_tasks`` becomes the target assignment), placements
   are swapped on the cell and every serving backend, and repair
   scanners start on joining tasks.
4. **drain** — one post-cutover reconcile sweep catches any write acked
   on the old cohort whose shadow copy was lost, survivors purge the
   entries they no longer own, and (after a grace period for stale
   clients to refresh) departing tasks stop gracefully.

A crash of a migration target mid-handoff is retried across sweeps; if
the target never returns within ``max_sweeps`` the resize aborts
cleanly, restoring the previous assignment. The whole operation holds
the cell's topology lock, serializing against planned maintenance; the
config store's compare-and-swap is the backstop if a controller bypasses
the lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence

from ..sim import Simulator
from .config import CellConfig
from .errors import CliqueMapError
from .hashing import Placement
from .repair import RepairScanner


@dataclass
class ResizeConfig:
    """Handoff pacing and limits."""

    max_sweeps: int = 12          # backfill rounds before abort/cutover
    sweep_interval: float = 0.01  # pause between converging sweeps
    drain_grace: float = 0.05     # cutover -> stop of departing tasks

    def __post_init__(self) -> None:
        if self.max_sweeps < 1:
            raise CliqueMapError(
                f"ResizeConfig.max_sweeps must be >= 1, "
                f"got {self.max_sweeps!r}")
        if self.sweep_interval < 0 or self.drain_grace < 0:
            raise CliqueMapError(
                "ResizeConfig intervals must be >= 0")


@dataclass
class ResizeStats:
    grows: int = 0
    shrinks: int = 0
    aborted: int = 0
    sweeps: int = 0
    entries_backfilled: int = 0
    entries_purged: int = 0
    last_handoff_seconds: float = 0.0


class ResizeController:
    """Drives online grow/shrink handoffs on a cell."""

    def __init__(self, sim: Simulator, cell,
                 config: Optional[ResizeConfig] = None):
        self.sim = sim
        self.cell = cell
        self.config = config or ResizeConfig()
        self.stats = ResizeStats()
        self.active = False
        self._m_events = cell.metrics.counter(
            "cliquemap_resize_events_total",
            "Resize lifecycle events by kind and outcome")
        self._m_backfill = cell.metrics.counter(
            "cliquemap_resize_backfill_entries_total",
            "Entries installed on target-cohort tasks during handoff")
        self._scanners: Dict[str, RepairScanner] = {}

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------

    def grow(self, count: int = 1) -> Generator:
        """Add ``count`` backend tasks and extend the layout online."""
        if count < 1:
            raise CliqueMapError(f"grow count must be >= 1, got {count!r}")
        return (yield from self._resize("grow", grow_count=count))

    def shrink(self, tasks: Optional[Sequence[str]] = None,
               count: int = 1) -> Generator:
        """Drain ``tasks`` (default: the layout's tail ``count`` tasks)
        out of the cell and contract the layout online."""
        return (yield from self._resize("shrink", shrink_tasks=tasks,
                                        shrink_count=count))

    # ------------------------------------------------------------------
    # The phased handoff
    # ------------------------------------------------------------------

    def _resize(self, action: str, grow_count: int = 0,
                shrink_tasks: Optional[Sequence[str]] = None,
                shrink_count: int = 1) -> Generator:
        if self.active:
            raise CliqueMapError("a resize is already in flight")
        cell = self.cell
        request = cell.topology_lock.request()
        yield request
        self.active = True
        started = self.sim.now
        joining: List[str] = []
        leaving: List[str] = []
        outcome = "aborted"
        try:
            current = cell.config_store.peek(cell.spec.name)
            old_tasks = list(current.shard_tasks)
            if action == "grow":
                joining = [cell.new_task_name() for _ in range(grow_count)]
                target = old_tasks + joining
            else:
                if shrink_tasks is None:
                    leaving = old_tasks[-shrink_count:]
                else:
                    leaving = list(shrink_tasks)
                unknown = [t for t in leaving if t not in old_tasks]
                if unknown:
                    raise CliqueMapError(
                        f"cannot shrink: {unknown!r} not in the layout")
                target = [t for t in old_tasks if t not in leaving]
                if len(target) < current.mode.replicas:
                    raise CliqueMapError(
                        f"cannot shrink below replication: {len(target)} "
                        f"shards < {current.mode.replicas} replicas")
            target_placement = Placement(
                len(target), current.mode.replicas,
                hash_function=cell.placement.hash_function)

            # Phase 1: create joining backends, publish the dual
            # assignment (CAS against the generation we planned from).
            for idx, task in enumerate(target):
                if task in joining:
                    cell._create_backend(task, shard=idx,
                                         placement=target_placement)
            self._m_events.labels(kind=action, outcome="started").inc()
            if cell.flight:
                cell.flight.record("resize", origin="resize-controller",
                                   phase="started", action=action,
                                   shards_before=len(old_tasks),
                                   shards_after=len(target))

            def publish_prepare(config: CellConfig) -> None:
                config.resize_num_shards = len(target)
                config.migrating_to = {i: t for i, t in enumerate(target)}
                config.draining = list(leaving)

            updated = cell.config_store.update(
                cell.spec.name, publish_prepare,
                expected_config_id=current.config_id)
            cell.adopt_config(updated)

            # Phase 2: converging backfill sweeps over the RPC plane.
            converged = yield from self._backfill(
                target, target_placement, old_tasks)
            if not converged and not self._targets_alive(target):
                # A migration target never came back: abort cleanly.
                yield from self._abort(action, joining, updated.config_id)
                self.stats.aborted += 1
                return self._summary(action, "aborted", started,
                                     len(old_tasks), len(old_tasks))

            # Phase 3: cutover to the target layout.
            def publish_cutover(config: CellConfig) -> None:
                config.num_shards = len(target)
                config.shard_tasks = list(target)
                config.resize_num_shards = 0
                config.migrating_to = {}
                config.draining = []

            updated = cell.config_store.update(
                cell.spec.name, publish_cutover,
                expected_config_id=updated.config_id)
            cell.placement = target_placement
            for idx, task in enumerate(target):
                backend = cell.backends[task]
                backend.shard = idx
                backend.placement = target_placement
            cell.adopt_config(updated)
            for task in leaving:
                scanner = cell.scanners.pop(task, None)
                if scanner is not None:
                    scanner.stop()
            if cell.spec.repair_config.enabled:
                for task in joining:
                    existing = cell.scanner_for(task)
                    if existing is None or \
                            existing.backend is not cell.backends[task]:
                        cell._start_scanner(task)

            # Phase 4: wait out the drain grace FIRST — stale clients
            # keep writing under the old placement until they discover
            # the cutover, and those writes must land (and dual-write
            # their shadows) before we reconcile and purge, or a late
            # old-layout write leaves residue on a surviving non-cohort
            # task. Then one reconcile sweep catches anything acked on
            # the old cohort whose shadow was lost, survivors purge the
            # entries they no longer own, and departing tasks stop.
            if self.config.drain_grace:
                yield self.sim.delay(self.config.drain_grace)
            yield from self._backfill(target, target_placement, old_tasks,
                                      max_sweeps=1)
            for idx, task in enumerate(target):
                backend = cell.backends[task]
                if not backend.alive:
                    continue
                purged = yield from backend.purge_nonresident(
                    target_placement, idx)
                self.stats.entries_purged += purged
            for task in leaving:
                backend = cell.backends[task]
                if backend.alive:
                    backend.stop()

            if action == "grow":
                self.stats.grows += 1
            else:
                self.stats.shrinks += 1
            outcome = "completed"
            return self._summary(action, "completed", started,
                                 len(old_tasks), len(target))
        finally:
            self.stats.last_handoff_seconds = self.sim.now - started
            self._m_events.labels(kind=action, outcome=outcome).inc()
            if cell.flight:
                cell.flight.record("resize", origin="resize-controller",
                                   phase=outcome, action=action,
                                   duration=self.sim.now - started)
            self._scanners.clear()
            self.active = False
            cell.topology_lock.release(request)

    # ------------------------------------------------------------------
    # Phase helpers
    # ------------------------------------------------------------------

    def _backfill(self, target: List[str], placement: Placement,
                  old_tasks: List[str],
                  max_sweeps: Optional[int] = None) -> Generator:
        """Run converging sweeps; True once a full sweep installs
        nothing new with every target task alive."""
        sweeps = max_sweeps if max_sweeps is not None \
            else self.config.max_sweeps
        for sweep in range(sweeps):
            installed = 0
            all_alive = True
            for idx, task in enumerate(target):
                backend = self.cell.backends[task]
                if not backend.alive:
                    all_alive = False
                    continue  # the next sweep retries this target
                peers = [t for t in old_tasks
                         if t != task and self.cell.backends[t].alive]
                installed += yield from self._scanner_for(task).recover_from(
                    peers, placement=placement, shard=idx)
            self.stats.sweeps += 1
            if installed:
                self._m_backfill.labels().inc(installed)
                self.stats.entries_backfilled += installed
            if installed == 0 and all_alive:
                return True
            if self.config.sweep_interval:
                yield self.sim.delay(self.config.sweep_interval)
        return False

    def _abort(self, action: str, joining: List[str],
               expected_config_id: int) -> Generator:
        """Clear the dual assignment and retire any joining tasks."""

        def publish_abort(config: CellConfig) -> None:
            config.resize_num_shards = 0
            config.migrating_to = {}
            config.draining = []

        updated = self.cell.config_store.update(
            self.cell.spec.name, publish_abort,
            expected_config_id=expected_config_id)
        self.cell.adopt_config(updated)
        for task in joining:
            backend = self.cell.backends.get(task)
            if backend is not None and backend.alive:
                backend.stop()
        yield self.sim.delay(0)

    def _targets_alive(self, target: List[str]) -> bool:
        return all(self.cell.backends[t].alive for t in target)

    def _scanner_for(self, task: str) -> RepairScanner:
        """An ephemeral (loop-less) repair scanner co-located with one
        target task, reused across this resize's sweeps."""
        scanner = self._scanners.get(task)
        if scanner is None or \
                scanner.backend is not self.cell.backends[task]:
            scanner = self._scanners[task] = RepairScanner(
                self.sim, self.cell, self.cell.backends[task])
        return scanner

    def _summary(self, action: str, outcome: str, started: float,
                 shards_before: int, shards_after: int) -> dict:
        return {
            "action": action,
            "outcome": outcome,
            "shards_before": shards_before,
            "shards_after": shards_after,
            "sweeps": self.stats.sweeps,
            "entries_backfilled": self.stats.entries_backfilled,
            "entries_purged": self.stats.entries_purged,
            "duration": self.sim.now - started,
        }
