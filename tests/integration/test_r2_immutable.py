"""R=2/Immutable mode with a system of record (§6.4, §6.5)."""

import pytest

from repro.core import (Cell, CellSpec, GetStatus, GetStrategy,
                        ReplicationMode)
from repro.rpc import Principal, connect as rpc_connect
from repro.storage import CorpusLoader, SystemOfRecord
from repro.storage.sor import MEDIA_LATENCY


def build(num_keys=60):
    cell = Cell(CellSpec(mode=ReplicationMode.R2_IMMUTABLE, num_shards=4,
                         transport="pony"))
    sor_host = cell.fabric.add_host("host/sor")
    sor = SystemOfRecord(cell.sim, sor_host)
    sor.load({b"doc-%d" % i: b"payload-%d" % i for i in range(num_keys)})
    sor.freeze()
    return cell, sor


def load(cell, sor, **kwargs):
    loader = CorpusLoader(cell, sor, **kwargs)
    return cell.sim.run(until=cell.sim.process(loader.load()))


def test_sor_read_roundtrip():
    cell, sor = build()
    host = cell.fabric.add_host("host/app")
    channel = rpc_connect(cell.sim, cell.fabric, host, sor.rpc_server,
                          Principal("app"))

    def app():
        hit = yield from channel.call("Read", {"key": b"doc-3"})
        miss = yield from channel.call("Read", {"key": b"nope"})
        return hit, miss

    hit, miss = cell.sim.run(until=cell.sim.process(app()))
    assert hit == {"found": True, "value": b"payload-3"}
    assert miss == {"found": False}
    assert sor.reads == 2


def test_sor_reads_cost_media_latency():
    cell, sor = build()
    host = cell.fabric.add_host("host/app")
    channel = rpc_connect(cell.sim, cell.fabric, host, sor.rpc_server,
                          Principal("app"))

    def app():
        start = cell.sim.now
        yield from channel.call("Read", {"key": b"doc-1"})
        return cell.sim.now - start

    latency = cell.sim.run(until=cell.sim.process(app()))
    assert latency > MEDIA_LATENCY


def test_sealed_corpus_rejects_load():
    cell, sor = build()
    with pytest.raises(RuntimeError):
        sor.load({b"late": b"write"})


def test_loader_requires_sealed_corpus():
    cell = Cell(CellSpec(mode=ReplicationMode.R2_IMMUTABLE, num_shards=4,
                         transport="pony"))
    sor_host = cell.fabric.add_host("host/sor")
    sor = SystemOfRecord(cell.sim, sor_host)
    sor.load({b"k": b"v"})
    loader = CorpusLoader(cell, sor)
    proc = cell.sim.process(loader.load())
    proc.defused = True
    cell.sim.run()
    assert isinstance(proc.value, RuntimeError)


def test_loader_populates_both_replicas():
    cell, sor = build(num_keys=40)
    report = load(cell, sor)
    assert report.keys_loaded == 40
    assert report.replicas_written == 80  # two replicas per key
    assert report.batches >= 1
    # Every key resides on exactly two backends.
    for i in range(40):
        key = b"doc-%d" % i
        holders = sum(1 for b in cell.serving_backends()
                      if b.lookup_local(key) is not None)
        assert holders == 2


def test_cached_reads_much_faster_than_sor():
    cell, sor = build(num_keys=30)
    load(cell, sor)
    client = cell.connect_client()
    sor_channel = rpc_connect(cell.sim, cell.fabric, client.host,
                              sor.rpc_server, Principal("app"))

    def app():
        cached = yield from client.get(b"doc-7")
        assert cached.status is GetStatus.HIT
        start = cell.sim.now
        yield from sor_channel.call("Read", {"key": b"doc-7"})
        durable_latency = cell.sim.now - start
        return cached.latency, durable_latency

    cached_latency, durable_latency = cell.sim.run(
        until=cell.sim.process(app()))
    # The whole point of the cache tier: orders of magnitude faster.
    assert durable_latency > 20 * cached_latency


def test_r2_consults_one_replica_in_common_case():
    cell, sor = build(num_keys=20)
    load(cell, sor)
    client = cell.connect_client(strategy=GetStrategy.TWO_R)

    def app():
        reads_before = cell.transport.counters.reads
        for i in range(10):
            result = yield from client.get(b"doc-%d" % i)
            assert result.hit
        return cell.transport.counters.reads - reads_before

    reads = cell.sim.run(until=cell.sim.process(app()))
    # One index fetch + one data fetch per GET: 20, not 30+ (no quorum).
    assert reads == 20


def test_r2_second_replica_covers_failure():
    cell, sor = build(num_keys=20)
    load(cell, sor)
    client = cell.connect_client(strategy=GetStrategy.TWO_R)

    def app():
        yield from client.get(b"doc-0")  # connect/warm
        # Crash the first replica of every key we read.
        cell.backend_by_task(cell.task_for_shard(0)).crash()
        cell.backend_by_task(cell.task_for_shard(1)).crash()
        hits = 0
        for i in range(20):
            result = yield from client.get(b"doc-%d" % i, deadline=50e-3)
            hits += result.hit
        return hits

    hits = cell.sim.run(until=cell.sim.process(app()))
    # Keys whose primary died are served by the second replica; keys with
    # both replicas on the two dead backends (adjacent pair) are lost.
    assert hits >= 10


def test_miss_falls_back_to_sor_pattern():
    """The application pattern §6.4 implies: miss -> read durable copy."""
    cell, sor = build(num_keys=10)
    load(cell, sor)
    client = cell.connect_client()
    sor_channel = rpc_connect(cell.sim, cell.fabric, client.host,
                              sor.rpc_server, Principal("app"))

    def fetch(key):
        result = yield from client.get(key)
        if result.hit:
            return result.value, "cache"
        durable = yield from sor_channel.call("Read", {"key": key})
        return durable.get("value"), "sor"

    def app():
        value, source = yield from fetch(b"doc-3")
        assert (value, source) == (b"payload-3", "cache")
        value, source = yield from fetch(b"uncached-key")
        assert (value, source) == (None, "sor")

    cell.sim.run(until=cell.sim.process(app()))
