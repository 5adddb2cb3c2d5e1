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
from ..rpc import Principal, RpcError, connect as rpc_connect
from .sor import SystemOfRecord

LOADER_CLIENT_ID = (1 << 24) + (1 << 20)


@dataclass
class LoadReport:
    keys_loaded: int = 0
    replicas_written: int = 0
    batches: int = 0
    duration: float = 0.0


class CorpusLoader:
    """Moves a sealed corpus into a cell, replica by replica."""

    def __init__(self, cell: Cell, sor: SystemOfRecord,
                 batch_size: int = 64, rpc_deadline: float = 1.0):
        self.cell = cell
        self.sor = sor
        self.sim = cell.sim
        self.batch_size = batch_size
        self.rpc_deadline = rpc_deadline
        self.versions = VersionFactory(LOADER_CLIENT_ID, TrueTime(self.sim))
        host = cell.add_local_host(f"host/loader-{sor.name}")
        self._sor_channel = rpc_connect(
            self.sim, cell.fabric, host, sor.rpc_server, Principal("loader"))
        self._backend_channels: Dict[str, object] = {}
        self._host = host

    def _channel_to_backend(self, task: str):
        channel = self._backend_channels.get(task)
        backend = self.cell.backend_by_task(task)
        if channel is None or channel.server is not backend.rpc_server:
            channel = rpc_connect(self.sim, self.cell.fabric, self._host,
                                  backend.rpc_server, Principal("loader"))
            self._backend_channels[task] = channel
        return channel

    def load(self) -> Generator:
        """Scan the corpus and install every KV at all its replicas."""
        if not self.sor.sealed:
            raise RuntimeError("freeze the corpus before loading (§6.4)")
        report = LoadReport()
        started = self.sim.now
        cursor = 0
        placement = self.cell.placement
        while True:
            reply = yield from self._sor_channel.call(
                "Scan", {"cursor": cursor, "limit": self.batch_size},
                deadline=self.rpc_deadline)
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
                size = sum(len(k) + len(v) + 32 for k, v, _ in entries)
                channel = self._channel_to_backend(task)
                try:
                    result = yield from channel.call(
                        "MigrateIn", {"entries": entries},
                        deadline=self.rpc_deadline, request_size=size)
                    report.replicas_written += result["applied"]
                except RpcError:
                    pass  # repairs reconcile gaps; immutable data is safe
            if reply["done"]:
                break
        report.duration = self.sim.now - started
        return report
