"""Immutable-corpus loading: system of record -> R=2 cell (§6.4).

A loader job scans the sealed corpus out of the system of record in
batches and bulk-installs it into every replica of an R=2/Immutable
CliqueMap cell. All entries carry loader-nominated versions, and because
the corpus is immutable no further mutations follow — one replica serves
most GETs, the second covers failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List

from ..core import Cell, TrueTime, VersionFactory
from ..core.repair import HANDOFF_BATCH, HandoffStub
from ..rpc import Principal, connect as rpc_connect
from .sor import SystemOfRecord

LOADER_CLIENT_ID = (1 << 24) + (1 << 20)
LOADER_RPC_DEADLINE = 1.0


@dataclass
class LoadReport:
    keys_loaded: int = 0
    replicas_written: int = 0
    batches: int = 0
    duration: float = 0.0
    rpc_errors: int = 0          # MigrateIn batches a replica never took


class CorpusLoader:
    """Moves a sealed corpus into a cell, replica by replica."""

    def __init__(self, cell: Cell, sor: SystemOfRecord):
        self.cell = cell
        self.sor = sor
        self.sim = cell.sim
        self.versions = VersionFactory(LOADER_CLIENT_ID, TrueTime(self.sim))
        self._host = cell.add_local_host(f"host/loader-{sor.name}")
        self._sor_channel = rpc_connect(
            self.sim, cell.fabric, self._host, sor.rpc_server,
            Principal("loader"))

    def load(self) -> Generator:
        """Scan the corpus and install every KV at all its replicas."""
        if not self.sor.sealed:
            raise RuntimeError("freeze the corpus before loading (§6.4)")
        report = LoadReport()

        def failed(_method: str) -> None:
            # Repairs reconcile gaps and immutable data is safe on its
            # other replica — but the report says a replica was skipped.
            report.rpc_errors += 1

        backends = HandoffStub(self.sim, self.cell, self._host, "loader",
                               LOADER_RPC_DEADLINE, failed)
        started = self.sim.now
        cursor = 0
        placement = self.cell.placement
        while True:
            reply = yield from self._sor_channel.call(
                "Scan", {"cursor": cursor, "limit": HANDOFF_BATCH},
                deadline=LOADER_RPC_DEADLINE)
            if reply.get("throttled"):
                # Provisioned-throughput pushback: wait out the bucket
                # refill instead of spinning on the same cursor.
                yield self.sim.delay(10e-3)
                continue
            report.batches += 1
            cursor = reply["next_cursor"]
            # Group the batch per destination task to amortize RPCs.
            per_task: Dict[str, List] = {}
            for key, value in reply["entries"]:
                version = self.versions.next()
                key_hash = placement.key_hash(key)
                for shard in placement.shards_for(key_hash):
                    task = self.cell.task_for_shard(shard)
                    per_task.setdefault(task, []).append(
                        (key, value, version.pack()))
                report.keys_loaded += 1
            for task, entries in per_task.items():
                report.replicas_written += yield from backends.install(
                    task, entries)
            if reply["done"]:
                break
        report.duration = self.sim.now - started
        return report
