"""Planned maintenance via warm spares; unplanned crash/restart (§6.1).

Binary upgrades are essentially always in progress at fleet scale. A
backend notified of planned maintenance migrates its identity and data to
a *warm spare*; the cell configuration is updated (new generation) and
every backend stamps the new configuration id into its bucket headers, so
clients discover the migration during normal response validation and
refresh from the external HA store — no request ever has to fail over a
dead server. After the restart, the spare hands the shard back.

Unplanned failures skip the graceful hand-off: the host simply dies, the
task restarts after a delay, and en-masse repairs (§5.4) repopulate it
from the healthy cohort.

Planned maintenance holds the cell's topology lock for its whole cycle,
so it serializes against an online resize (and vice versa); unplanned
crashes, being crashes, take no lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..sim import Simulator
from ..telemetry import tally
from .errors import CliqueMapError
from .repair import HANDOFF_BATCH, HandoffStub

MIGRATE_RPC_DEADLINE = 100e-3


@dataclass
class MaintenanceConfig:
    restart_delay: float = 30.0        # binary restart time (planned)
    crash_restart_delay: float = 90.0  # reschedule + cold start (unplanned)


@dataclass
class MaintenanceStats:
    planned_migrations: int = 0
    entries_migrated: int = 0
    unplanned_restarts: int = 0
    migration_rpc_errors: int = 0


class MaintenanceController:
    """Drives planned and unplanned maintenance events on a cell."""

    def __init__(self, sim: Simulator, cell,
                 config: Optional[MaintenanceConfig] = None):
        self.sim = sim
        self.cell = cell
        self.config = config or MaintenanceConfig()
        self._entries_migrated = 0
        # Counter tallies: events by kind, failed batches by direction.
        self._events = cell.metrics.adopt(
            "cliquemap_maintenance_events_total",
            "Maintenance events driven on the cell, by kind", tally(),
            ("kind",))
        self._rpc_errors = cell.metrics.adopt(
            "cliquemap_migration_rpc_errors_total",
            "Migration MigrateIn batches that failed (reconciled by "
            "repair), by direction", tally(), ("direction",))

    @property
    def stats(self) -> MaintenanceStats:
        """Built per read; all but ``entries_migrated`` are tallies."""
        return MaintenanceStats(
            planned_migrations=self._events["planned-restart"],
            entries_migrated=self._entries_migrated,
            unplanned_restarts=self._events["unplanned-crash"],
            migration_rpc_errors=sum(self._rpc_errors.values()))

    # ------------------------------------------------------------------
    # Planned maintenance
    # ------------------------------------------------------------------

    def planned_restart(self, shard: int) -> Generator:
        """Full cycle: migrate to spare, restart primary, migrate back.

        Serialized against other topology changes (resize, concurrent
        planned restarts) via the cell's topology lock.
        """
        request = self.cell.topology_lock.request()
        yield request
        try:
            yield from self._planned_restart_locked(shard)
        finally:
            self.cell.topology_lock.release(request)

    def _planned_restart_locked(self, shard: int) -> Generator:
        primary_task = self.cell.task_for_shard(shard)
        spare_task = self.cell.take_spare()
        if spare_task is None:
            raise CliqueMapError(
                f"no warm spare available for planned maintenance of "
                f"shard {shard} (cell has an empty spare pool)")
        primary = self.cell.backend_by_task(primary_task)
        spare = self.cell.backend_by_task(spare_task)
        self._events["planned-restart"] += 1

        # 1. Transfer identity and data to the spare (RPC traffic).
        spare.shard = shard
        yield from self._transfer(primary, spare, direction="to-spare")

        # 2. Point the shard at the spare and bump the config generation;
        #    backends stamp the new id into bucket headers so clients
        #    validating any response notice and refresh.
        self.cell.repoint_shard(shard, spare_task, spare_role=True)

        # 3. The primary exits and restarts with the new binary.
        primary.stop()
        yield self.sim.delay(self.config.restart_delay)
        restarted = self.cell.restart_backend_task(primary_task, shard=shard)

        # 4. The spare returns the shard's data (RPC traffic again), then
        #    releases its copy (a non-disruptive restart to empty state,
        #    freeing the DRAM for the next maintenance event).
        yield from self._transfer(spare, restarted, direction="from-spare")
        self.cell.return_spare(spare_task)
        self.cell.repoint_shard(shard, primary_task, spare_role=False)
        spare.stop()
        self.cell.restart_backend_task(spare_task, shard=-1)

    def _transfer(self, source, target, direction: str) -> Generator:
        """Stream every resident entry from source to target in batches."""

        def failed(_method: str) -> None:
            # Repairs reconcile the gap, but the failure must be visible:
            # a silent drop here looks identical to a healthy migration.
            self._rpc_errors[direction] += 1

        stub = HandoffStub(
            self.sim, self.cell, source.host, f"migrate@{source.task_name}",
            MIGRATE_RPC_DEADLINE, failed,
            component=f"migrate:{source.task_name}")
        entries = source.snapshot_entries()
        # One install per batch, so ``entries_migrated`` advances as the
        # transfer does.
        for at in range(0, len(entries), HANDOFF_BATCH):
            batch = entries[at:at + HANDOFF_BATCH]
            yield from stub.install(target.task_name, batch)
            self._entries_migrated += len(batch)

    # ------------------------------------------------------------------
    # Unplanned maintenance
    # ------------------------------------------------------------------

    def unplanned_crash(self, shard: int,
                        restart_delay: Optional[float] = None) -> Generator:
        """Forcibly crash the shard's backend, restart it later, repair."""
        task = self.cell.task_for_shard(shard)
        return (yield from self.unplanned_crash_task(task, restart_delay))

    def unplanned_crash_task(self, task: str,
                             restart_delay: Optional[float] = None
                             ) -> Generator:
        """Crash a backend *task* (it may be mid-migration or a resize
        joiner, i.e. not currently resolvable through a shard index)."""
        backend = self.cell.backend_by_task(task)
        shard = backend.shard
        backend.crash()
        self._events["unplanned-crash"] += 1
        yield self.sim.delay(restart_delay
                             if restart_delay is not None
                             else self.config.crash_restart_delay)
        restarted = self.cell.restart_backend_task(task, shard=shard)
        scanner = self.cell.scanner_for(task)
        if scanner is not None:
            yield from scanner.restart_recovery()
        return restarted
