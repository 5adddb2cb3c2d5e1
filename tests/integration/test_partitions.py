"""Network partitions: dirty quorums from dropped RPCs/RMAs (§5.4)."""

import pytest

from repro.core import (Cell, CellSpec, GetStatus, GetStrategy,
                        RepairConfig, ReplicationMode, SetStatus)
from repro.core.client import CliqueMapClient
from repro.core.resilience import BackendHealth
from repro.net import Fabric, FabricConfig, NetworkDropError
from repro.net.fabric import PARTITION_DETECT_DELAY
from repro.sim import Simulator


def build(repair=False):
    spec = CellSpec(
        mode=ReplicationMode.R3_2, num_shards=3, transport="pony",
        repair_config=RepairConfig(enabled=repair, scan_interval=0.3))
    return Cell(spec)


def run(cell, gen):
    return cell.sim.run(until=cell.sim.process(gen))


def test_partitioned_delivery_raises_after_detect_delay():
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig(delay_jitter=0.0))
    a = fabric.add_host("a")
    b = fabric.add_host("b")
    fabric.partition(a, b)

    def send():
        start = sim.now
        try:
            yield from fabric.deliver(a, b, 100)
        except NetworkDropError:
            return sim.now - start
        return None

    elapsed = sim.run(until=sim.process(send()))
    assert elapsed == pytest.approx(PARTITION_DETECT_DELAY)
    fabric.heal(a, b)

    def send_ok():
        yield from fabric.deliver(a, b, 100)
        return True

    assert sim.run(until=sim.process(send_ok()))


def test_reads_survive_client_partitioned_from_one_replica():
    cell = build()
    client = cell.connect_client(strategy=GetStrategy.TWO_R)

    def app():
        for i in range(10):
            yield from client.set(b"k-%d" % i, b"v")
        victim = cell.backend_by_task("backend-1")
        cell.fabric.partition(client.host, victim.host)
        hits = 0
        for i in range(10):
            result = yield from client.get(b"k-%d" % i)
            hits += result.status is GetStatus.HIT
        return hits

    assert run(cell, app()) == 10


def test_a_set_books_each_replica_reply_as_it_lands(monkeypatch):
    """One replica partitioned, two land: the fan-out books one failure
    and two successes, and the tally sees the replies in view order."""
    booked, tallied = [], []
    for outcome in ("record_success", "record_failure"):
        def record(health, _real=getattr(BackendHealth, outcome),
                   _outcome=outcome):
            booked.append((_outcome, health))
            return _real(health)
        monkeypatch.setattr(BackendHealth, outcome, record)
    tally = CliqueMapClient._tally
    monkeypatch.setattr(CliqueMapClient, "_tally", staticmethod(
        lambda replies, quorum: tallied.append(list(replies)) or
        tally(replies, quorum)))
    cell = build()
    client = cell.connect_client(strategy=GetStrategy.TWO_R)

    def app():
        yield from client.set(b"warm", b"v")        # connections
        cell.fabric.partition(client.host,
                              cell.backend_by_task("backend-1").host)
        views = client._replica_views(client.placement.key_hash(b"key"))
        del booked[:], tallied[:]
        return views, (yield from client.set(b"key", b"value"))

    views, result = run(cell, app())
    assert result.status is SetStatus.APPLIED and result.replicas_applied == 2
    task_of = {view.health: view.task for view in views}
    assert sorted((outcome, task_of[health]) for outcome, health in booked) \
        == [("record_failure", "backend-1"), ("record_success", "backend-0"),
            ("record_success", "backend-2")]
    [replies] = tallied
    assert [reply is not None for reply in replies] == \
        [view.task != "backend-1" for view in views]


def test_writes_during_partition_create_dirty_quorums():
    cell = build()
    writer = cell.connect_client()

    def app():
        victim = cell.backend_by_task("backend-2")
        cell.fabric.partition(writer.host, victim.host)
        result = yield from writer.set(b"k", b"v")
        # The write still reaches a quorum (2 of 3): §5.2 forward progress.
        assert result.status is SetStatus.APPLIED
        assert result.replicas_applied == 2
        # The partitioned replica missed it: a dirty quorum (§5.4).
        return victim.lookup_local(b"k")

    missing = run(cell, app())
    assert missing is None


def test_repair_heals_partition_induced_dirty_quorum():
    cell = build(repair=True)
    writer = cell.connect_client()

    def app():
        victim = cell.backend_by_task("backend-2")
        cell.fabric.partition(writer.host, victim.host)
        yield from writer.set(b"k", b"v")
        assert victim.lookup_local(b"k") is None
        cell.fabric.heal_all()
        yield cell.sim.timeout(1.0)  # a scan cycle
        return victim.lookup_local(b"k")

    repaired = run(cell, app())
    assert repaired is not None
    assert repaired[0] == b"v"


def test_reader_partitioned_from_writer_still_converges():
    """A reader on the far side of a client-side partition sees the write
    once its own (unpartitioned) paths serve it."""
    cell = build()
    writer = cell.connect_client()
    reader = cell.connect_client(strategy=GetStrategy.TWO_R)

    def app():
        victim = cell.backend_by_task("backend-0")
        cell.fabric.partition(writer.host, victim.host)
        yield from writer.set(b"k", b"fresh")
        result = yield from reader.get(b"k")
        return result

    result = run(cell, app())
    assert result.status is GetStatus.HIT
    assert result.value == b"fresh"
