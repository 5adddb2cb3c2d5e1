"""Tests for the public experiment-harness utilities (repro.testing)."""


from repro.core import Cell, CellSpec, GetStrategy, ReplicationMode
from repro.testing import (cell_cpu_hosts, drive, key_with_primary_shard,
                           measure_gets, preload_keys, total_cpu)


def build():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))
    return cell, cell.connect_client(strategy=GetStrategy.TWO_R)


def test_drive_returns_generator_value():
    cell, _client = build()

    def gen():
        yield cell.sim.timeout(1e-3)
        return 42

    assert drive(cell, gen()) == 42


def test_preload_and_measure():
    cell, client = build()
    keys = [b"key-%d" % i for i in range(10)]
    preload_keys(cell, client, keys, 256)
    recorder = measure_gets(cell, client, keys, count=30)
    assert recorder.count == 30
    assert recorder.percentile(50) > 0


def test_key_with_primary_shard_pins_correctly():
    cell, _client = build()
    for shard in range(3):
        key = key_with_primary_shard(cell, shard)
        assert cell.placement.primary_shard(
            cell.placement.key_hash(key)) == shard


def test_total_cpu_sums_hosts():
    cell, client = build()
    preload_keys(cell, client, [b"k"], 64)
    hosts = cell_cpu_hosts(cell) + [client.host]
    assert len(hosts) == 4
    assert total_cpu(*hosts) > 0

