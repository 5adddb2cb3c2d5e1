"""The handoff plane's RPC sequence, frozen as digests.

Every entry that moves *between* backends rides three RPC verbs —
``ScanSummary`` (what do you hold), ``RepairGet`` (give me one),
``MigrateIn`` (take these) — and four movers compose them: cohort repair
and restart recovery (§5.4), resize backfill and planned migration
(§6.1), the immutable-corpus load (§6.4). Which RPC goes to whom, when,
under which principal, with how many request bytes and what deadline is
observable (resize backfill races live writers), so it is the model's
behaviour, not an accident of which copy of the loop a mover runs.

``GOLDEN`` is what the tree produced when each scenario was stamped (on
the commit *before* the plane was written once); a refactor of
``core/repair.py`` / ``resize.py`` / ``maintenance.py`` /
``storage/loader.py`` must reproduce every digest, and a deliberate
behaviour change re-stamps only the scenario it names.

To re-stamp: ``PYTHONPATH=src python tests/integration/test_handoff_plane.py``
prints the table; pass a scenario name to dump its full RPC log instead.
"""

import hashlib
import pprint
import sys

import pytest

from repro.core import (Cell, CellSpec, GetStatus, MaintenanceConfig,
                        RepairConfig, ReplicationMode, ResizeConfig,
                        SetStatus)
from repro.core.repair import RepairScanner
from repro.rpc import Message, RpcChannel
from repro.storage import CorpusLoader, SystemOfRecord

PLANE_METHODS = ("ScanSummary", "RepairGet", "MigrateIn")


class RpcLog:
    """Every handoff-plane RPC issued while installed, one line each:
    instant, principal, server, method, request bytes, deadline."""

    def __init__(self, sim):
        self.sim = sim
        self.lines = []

    def install(self, monkeypatch) -> "RpcLog":
        log, original = self, RpcChannel.call

        def call(channel, method, payload, deadline=None, metadata=None,
                 request_size=None, trace=None):
            if method in PLANE_METHODS and channel.sim is log.sim:
                size = Message(method=method, payload=payload,
                               metadata=metadata or {},
                               version=channel.version,
                               size_override=request_size).wire_size
                log.lines.append(
                    f"{log.sim.now.hex()} {channel.principal.name} "
                    f"{channel.server.name} {method} {size} {deadline!r}")
            return original(channel, method, payload, deadline=deadline,
                            metadata=metadata, request_size=request_size,
                            trace=trace)

        monkeypatch.setattr(RpcChannel, "call", call)
        return self

    def stamp(self) -> dict:
        by_method = {m: sum(f" {m} " in line for line in self.lines)
                     for m in PLANE_METHODS}
        digest = hashlib.sha256("\n".join(self.lines).encode()).hexdigest()
        return {"rpcs": by_method, "digest": digest[:16]}


def _cell(num_shards=3, num_spares=0, repair=True, scan_interval=100.0):
    return Cell(CellSpec(
        mode=ReplicationMode.R3_2, num_shards=num_shards,
        num_spares=num_spares, transport="pony", seed=23,
        repair_config=RepairConfig(enabled=repair,
                                   scan_interval=scan_interval),
        maintenance_config=MaintenanceConfig(restart_delay=0.05),
        resize_config=ResizeConfig(max_sweeps=20, sweep_interval=0.005,
                                   drain_grace=0.02)))


def _seed(cell, client, count):
    def loop():
        for i in range(count):
            result = yield from client.set(b"hk-%d" % i, b"hv-%d" % i)
            assert result.status is SetStatus.APPLIED
    cell.sim.run(until=cell.sim.process(loop()))


def _writer(cell, client, count, stop):
    """Overwrite the seeded keys round-robin until ``stop`` is set."""
    def loop():
        i = 0
        while not stop:
            yield from client.set(b"hk-%d" % (i % count), b"hw-%d" % i)
            i += 1
            yield cell.sim.delay(50e-6)
    proc = cell.sim.process(loop())
    proc.defused = True
    return proc


def _drive_under_writes(cell, client, keys, mover):
    stop = []
    writer = _writer(cell, client, keys, stop)
    cell.sim.run(until=cell.sim.process(mover))
    stop.append(True)
    cell.sim.run(until=writer)


# ---------------------------------------------------------------------------
# The five scenarios
# ---------------------------------------------------------------------------

def restart_recovery_under_sets(monkeypatch):
    """(a) Unplanned crash, restart, en-masse recovery while a writer
    keeps mutating the keys being recovered. 250 keys over 3 primaries:
    every primary's pull flushes at 64 and again at its tail."""
    cell = _cell()
    client = cell.connect_client()
    _seed(cell, client, 250)
    log = RpcLog(cell.sim).install(monkeypatch)
    _drive_under_writes(
        cell, client, 250,
        cell.maintenance.unplanned_crash(0, restart_delay=0.01))
    assert cell.scanner_for("backend-0").stats.keys_recovered >= 250
    return log


def scan_with_missing_and_stale(monkeypatch):
    """(b) One ``scan_once`` over a cohort where one replica lost keys
    and another slept through overwrites."""
    cell = _cell(repair=False)
    client = cell.connect_client()
    _seed(cell, client, 40)
    missing = cell.backend_by_task("backend-1")
    stale = cell.backend_by_task("backend-2")

    def damage():
        for i in range(0, 40, 4):
            yield from missing._remove_entry(
                missing.placement.key_hash(b"hk-%d" % i))
        cell.fabric.partition(client.host, stale.host)
        for i in range(1, 40, 4):
            yield from client.set(b"hk-%d" % i, b"newer-%d" % i)
        cell.fabric.heal(client.host, stale.host)

    cell.sim.run(until=cell.sim.process(damage()))
    scanner = RepairScanner(cell.sim, cell, cell.backend_by_task("backend-0"))
    log = RpcLog(cell.sim).install(monkeypatch)
    cell.sim.run(until=cell.sim.process(scanner.scan_once()))
    assert scanner.stats.keys_repaired == 20
    return log


def grow_then_shrink_under_sets(monkeypatch):
    """(c) One grow and one shrink, a writer running through both."""
    cell = _cell(num_shards=3)
    client = cell.connect_client()
    _seed(cell, client, 200)
    log = RpcLog(cell.sim).install(monkeypatch)
    _drive_under_writes(cell, client, 200, cell.grow(1))
    _drive_under_writes(cell, client, 200, cell.shrink(count=1))
    assert cell.resize.stats.grows == 1 and cell.resize.stats.shrinks == 1
    return log


def planned_restart(monkeypatch):
    """(d) Migrate to the warm spare, restart, migrate back."""
    cell = _cell(num_spares=1)
    client = cell.connect_client()
    _seed(cell, client, 150)
    log = RpcLog(cell.sim).install(monkeypatch)
    cell.sim.run(until=cell.sim.process(cell.maintenance.planned_restart(0)))
    assert cell.maintenance.stats.entries_migrated == 300
    return log


def corpus_load(monkeypatch):
    """(e) Bulk-install a sealed corpus into an R=2/Immutable cell."""
    cell = Cell(CellSpec(mode=ReplicationMode.R2_IMMUTABLE, num_shards=4,
                         transport="pony", seed=23))
    sor = SystemOfRecord(cell.sim, cell.fabric.add_host("host/sor"))
    sor.load({b"doc-%d" % i: b"payload-%d" % i for i in range(150)})
    sor.freeze()
    log = RpcLog(cell.sim).install(monkeypatch)
    report = cell.sim.run(
        until=cell.sim.process(CorpusLoader(cell, sor).load()))
    assert report.replicas_written == 300
    return log


SCENARIOS = {fn.__name__: fn for fn in (
    restart_recovery_under_sets, scan_with_missing_and_stale,
    grow_then_shrink_under_sets, planned_restart, corpus_load)}

#: Stamped on 23d72a2 (the parent of the change that wrote the plane once).
GOLDEN = \
{'restart_recovery_under_sets': {'rpcs': {'ScanSummary': 6,
                                          'RepairGet': 250,
                                          'MigrateIn': 0},
                                 'digest': '58a122dd2680062f'},
 'scan_with_missing_and_stale': {'rpcs': {'ScanSummary': 6,
                                          'RepairGet': 13,
                                          'MigrateIn': 40},
                                 'digest': '282a652e5539022f'},
 'grow_then_shrink_under_sets': {'rpcs': {'ScanSummary': 1134,
                                          'RepairGet': 710,
                                          'MigrateIn': 0},
                                 'digest': 'f77c800875ef56a9'},
 'planned_restart': {'rpcs': {'ScanSummary': 0,
                              'RepairGet': 0,
                              'MigrateIn': 6},
                     'digest': '3ca44029481d0f22'},
 'corpus_load': {'rpcs': {'ScanSummary': 0, 'RepairGet': 0, 'MigrateIn': 12},
                 'digest': 'fa782c89e38806c9'}}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_rpc_sequence_is_frozen(name, monkeypatch):
    assert SCENARIOS[name](monkeypatch).stamp() == GOLDEN[name]


# ---------------------------------------------------------------------------
# Failures on the plane are counted, never swallowed
# ---------------------------------------------------------------------------

def test_restart_recovery_counts_a_peer_it_could_not_ask():
    """The restarted host is partitioned from one cohort peer for the
    whole recovery: every ``ScanSummary`` to that peer fails, is counted
    like any other repair RPC error, and the other peer still refills
    the backend."""
    cell = _cell()
    client = cell.connect_client()
    _seed(cell, client, 30)
    victim = cell.backend_by_task("backend-0")
    before = victim.resident_keys
    cell.fabric.partition(victim.host,
                          cell.backend_by_task("backend-1").host)
    cell.sim.run(until=cell.sim.process(
        cell.maintenance.unplanned_crash(0, restart_delay=0.01)))
    cell.fabric.heal_all()

    scanner = cell.scanner_for("backend-0")
    assert scanner.stats.restart_recoveries == 1
    assert scanner.stats.rpc_errors >= 1
    assert cell.metrics.total("cliquemap_repair_rpc_errors_total",
                              method="ScanSummary") == \
        scanner.stats.rpc_errors
    assert cell.backend_by_task("backend-0").resident_keys == before > 0


def test_corpus_load_counts_a_replica_it_could_not_write():
    """One backend of an R=2/Immutable cell is down during the load: its
    ``MigrateIn`` batches fail into ``LoadReport.rpc_errors`` and every
    key is still served by its other replica."""
    cell = Cell(CellSpec(mode=ReplicationMode.R2_IMMUTABLE, num_shards=4,
                         transport="pony", seed=23))
    sor = SystemOfRecord(cell.sim, cell.fabric.add_host("host/sor"))
    keys = 60
    sor.load({b"doc-%d" % i: b"payload-%d" % i for i in range(keys)})
    sor.freeze()
    cell.backend_by_task("backend-1").crash()
    report = cell.sim.run(
        until=cell.sim.process(CorpusLoader(cell, sor).load()))
    assert report.keys_loaded == keys
    assert report.rpc_errors >= 1
    assert report.replicas_written < 2 * keys

    client = cell.connect_client()

    def read_all():
        hits = 0
        for i in range(keys):
            result = yield from client.get(b"doc-%d" % i, deadline=0.5)
            hits += (result.status is GetStatus.HIT
                     and result.value == b"payload-%d" % i)
        return hits

    assert cell.sim.run(until=cell.sim.process(read_all())) == keys


if __name__ == "__main__":
    patch = pytest.MonkeyPatch()
    if len(sys.argv) > 1:
        print("\n".join(SCENARIOS[sys.argv[1]](patch).lines))
    else:
        print("GOLDEN = \\")
        pprint.pprint({name: fn(patch).stamp()
                       for name, fn in SCENARIOS.items()},
                      width=79, sort_dicts=False)
    patch.undo()
