"""Unit tests for the system-of-record substrate."""

import pytest

from repro.core import Cell, CellSpec, ReplicationMode
from repro.rpc import Principal, connect as rpc_connect
from repro.storage import (CorpusLoader, MissPolicy, ProvisionedThroughput,
                           StorageCostModel, SystemOfRecord)


def build_sor(num_keys=10, throughput=None, **cost_kwargs):
    cell = Cell(CellSpec(mode=ReplicationMode.R1, num_shards=1,
                         transport="pony"))
    host = cell.fabric.add_host("host/sor")
    cost = StorageCostModel(**cost_kwargs) if cost_kwargs else None
    sor = SystemOfRecord(cell.sim, host, cost=cost, throughput=throughput)
    sor.load({b"k-%03d" % i: b"v-%d" % i for i in range(num_keys)})
    return cell, sor


def channel_for(cell, sor):
    host = cell.fabric.add_host("host/app-driver")
    return rpc_connect(cell.sim, cell.fabric, host, sor.rpc_server,
                       Principal("app"))


def call(cell, channel, method, payload):
    def caller():
        return (yield from channel.call(method, payload, deadline=10.0))
    return cell.sim.run(until=cell.sim.process(caller()))


def test_load_and_len():
    _cell, sor = build_sor(7)
    assert len(sor) == 7
    assert not sor.sealed


def test_load_overwrites_before_freeze():
    cell, sor = build_sor(2)
    sor.load({b"k-000": b"updated"})
    assert len(sor) == 2
    channel = channel_for(cell, sor)
    reply = call(cell, channel, "Read", {"key": b"k-000"})
    assert reply["value"] == b"updated"


def test_scan_pagination_covers_corpus():
    cell, sor = build_sor(25)
    sor.freeze()
    channel = channel_for(cell, sor)
    seen = []
    cursor = 0
    pages = 0
    while True:
        reply = call(cell, channel, "Scan", {"cursor": cursor, "limit": 10})
        seen.extend(k for k, _v in reply["entries"])
        cursor = reply["next_cursor"]
        pages += 1
        if reply["done"]:
            break
    assert pages == 3
    assert len(seen) == 25
    assert len(set(seen)) == 25


def test_scan_empty_tail():
    cell, sor = build_sor(5)
    channel = channel_for(cell, sor)
    reply = call(cell, channel, "Scan", {"cursor": 5, "limit": 10})
    assert reply["entries"] == []
    assert reply["done"]


def test_media_channels_serialize_access():
    cell, sor = build_sor(4, media_latency=1e-3, media_channels=1,
                          bytes_per_sec=1e9, cpu_per_read=1e-6)
    channel = channel_for(cell, sor)

    def burst():
        procs = [cell.sim.process(
            channel.call("Read", {"key": b"k-%03d" % i}))
            for i in range(4)]
        start = cell.sim.now
        yield cell.sim.all_of(procs)
        return cell.sim.now - start

    elapsed = cell.sim.run(until=cell.sim.process(burst()))
    # Four reads through one media channel at 1ms each: >= 4ms total.
    assert elapsed >= 4e-3


def test_parallel_media_channels_overlap():
    cell, sor = build_sor(4, media_latency=1e-3, media_channels=4,
                          bytes_per_sec=1e9, cpu_per_read=1e-6)
    channel = channel_for(cell, sor)

    def burst():
        procs = [cell.sim.process(
            channel.call("Read", {"key": b"k-%03d" % i}))
            for i in range(4)]
        start = cell.sim.now
        yield cell.sim.all_of(procs)
        return cell.sim.now - start

    elapsed = cell.sim.run(until=cell.sim.process(burst()))
    assert elapsed < 3e-3  # all four overlap on distinct channels


def test_shared_media_bus_serializes_large_transfers():
    # Channels let seeks overlap, but bulk transfers share one media
    # bus per host: four 100MB reads at 400MB/s need >= 1s of transfer
    # even with four channels.
    cell = Cell(CellSpec(mode=ReplicationMode.R1, num_shards=1,
                         transport="pony"))
    host = cell.fabric.add_host("host/sor")
    sor = SystemOfRecord(cell.sim, host, cost=StorageCostModel(
        media_latency=1e-6, media_channels=4, bytes_per_sec=400e6,
        cpu_per_read=1e-9))
    sor.load({b"k-%03d" % i: bytes(100_000_000) for i in range(4)})
    channel = channel_for(cell, sor)

    def burst():
        procs = [cell.sim.process(
            channel.call("Read", {"key": b"k-%03d" % i}, deadline=60.0))
            for i in range(4)]
        start = cell.sim.now
        yield cell.sim.all_of(procs)
        return cell.sim.now - start

    elapsed = cell.sim.run(until=cell.sim.process(burst()))
    assert elapsed >= 1.0  # 4 x 100MB / 400MB/s, serialized on the bus


def test_provisioned_throughput_throttles_reads():
    # 2 read units/s with a 1s burst: the third same-instant read of a
    # small key must be pushed back.
    cell, sor = build_sor(
        8, throughput=ProvisionedThroughput(read_units=2.0,
                                            write_units=2.0,
                                            burst_seconds=1.0))
    channel = channel_for(cell, sor)
    replies = [call(cell, channel, "Read", {"key": b"k-%03d" % i})
               for i in range(3)]
    throttled = [r for r in replies if r.get("throttled")]
    assert len(throttled) == 1
    assert throttled[0]["reason"] == "ProvisionedThroughputExceeded"
    assert sor.throttled == 1


def test_brownout_scales_capacity_and_restores():
    cell, sor = build_sor(
        4, throughput=ProvisionedThroughput(read_units=100.0,
                                            write_units=100.0))
    sor.brownout(0.1, duration=0.5)
    assert sor.browned_out
    assert sor.brownouts == 1
    cell.sim.run(until=cell.sim.timeout(1.0))
    assert not sor.browned_out
    with pytest.raises(Exception):
        sor.brownout(0.0)  # factor must be in (0, 1]


def test_write_requires_unsealed_corpus():
    cell, sor = build_sor(1)
    channel = channel_for(cell, sor)
    reply = call(cell, channel, "Write", {"key": b"new", "value": b"v"})
    assert reply["applied"]
    assert sor.write_log == [b"new"]
    sor.freeze()
    reply = call(cell, channel, "Write", {"key": b"other", "value": b"v"})
    assert not reply["applied"]
    assert reply["reason"] == "sealed"


def test_sor_accounting_under_throttling():
    """``reads``, ``writes`` and ``throttled`` agree with the request
    tally when the quota pushes back on all three verbs: a read-through
    Read, a write-behind Write and a loader Scan."""
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))
    sor = SystemOfRecord(
        cell.sim, cell.fabric.add_host("host/sor"),
        throughput=ProvisionedThroughput(read_units=10.0, write_units=10.0,
                                         burst_seconds=0.1))
    sor.load({b"k-%d" % i: b"v-%d" % i for i in range(3)})
    coordinator = cell.attach_sor(sor, MissPolicy())
    client = cell.connect_client()

    def app():
        reads = [cell.sim.process(client.get(b"k-%d" % i))
                 for i in range(2)]
        reads.append(cell.sim.process(client.get(b"absent")))
        yield cell.sim.all_of(reads)
        for i in range(3):
            yield from client.set(b"w-%d" % i, b"x-%d" % i)
        yield from coordinator.flush()
        sor.freeze()
        # This miss spends the refilled read unit, so the Scan waits.
        yield from client.get(b"absent")
        return (yield from CorpusLoader(cell, sor).load())

    report = cell.sim.run(until=cell.sim.process(app()))
    assert report.keys_loaded == 6  # the corpus plus three write-backs
    requests = cell.metrics.value

    def count(op, result):
        return requests("cliquemap_sor_requests_total", op=op,
                        result=result)

    assert all(count(op, "throttled") > 0 for op in ("read", "write",
                                                     "scan"))
    assert sor.reads == count("read", "ok") + count("read", "miss") > 0
    assert sor.writes == count("write", "ok") == len(sor.write_log) > 0
    assert sor.throttled == sum(count(op, "throttled")
                                for op in ("read", "write", "scan"))
    client.close()
    cell.close()
