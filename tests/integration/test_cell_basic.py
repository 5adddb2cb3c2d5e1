"""Integration tests: end-to-end cell operation across modes/strategies."""

import pytest

from repro.core import (BackendConfig, Cell, CellSpec, ClientConfig,
                        GetStatus, GetStrategy, ReplicationMode, SetStatus)


def run(cell, gen):
    return cell.sim.run(until=cell.sim.process(gen))


@pytest.mark.parametrize("mode,transport,strategy", [
    (ReplicationMode.R3_2, "pony", GetStrategy.SCAR),
    (ReplicationMode.R3_2, "pony", GetStrategy.TWO_R),
    (ReplicationMode.R3_2, "pony", GetStrategy.RPC),
    (ReplicationMode.R3_2, "1rma", GetStrategy.TWO_R),
    (ReplicationMode.R3_2, "rdma", GetStrategy.TWO_R),
    (ReplicationMode.R1, "pony", GetStrategy.SCAR),
    (ReplicationMode.R1, "rdma", GetStrategy.TWO_R),
])
def test_set_get_erase_roundtrip(mode, transport, strategy):
    cell = Cell(CellSpec(mode=mode, num_shards=4, transport=transport))
    client = cell.connect_client(strategy=strategy)

    def app():
        set_result = yield from client.set(b"key", b"value")
        assert set_result.status is SetStatus.APPLIED
        assert set_result.replicas_applied == mode.replicas
        got = yield from client.get(b"key")
        assert got.status is GetStatus.HIT
        assert got.value == b"value"
        missing = yield from client.get(b"missing")
        assert missing.status is GetStatus.MISS
        erased = yield from client.erase(b"key")
        assert erased.status is SetStatus.APPLIED
        gone = yield from client.get(b"key")
        assert gone.status is GetStatus.MISS

    run(cell, app())


def test_many_keys_roundtrip():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=6))
    client = cell.connect_client()
    n = 200

    def app():
        for i in range(n):
            result = yield from client.set(b"key-%d" % i, b"value-%d" % i)
            assert result.status is SetStatus.APPLIED
        hits = 0
        for i in range(n):
            got = yield from client.get(b"key-%d" % i)
            if got.hit and got.value == b"value-%d" % i:
                hits += 1
        return hits

    assert run(cell, app()) == n


def test_values_of_many_sizes():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         backend_config=BackendConfig(
                             data_initial_bytes=1 << 22,
                             data_virtual_limit=1 << 26)))
    client = cell.connect_client()
    sizes = [0, 1, 63, 64, 65, 1024, 4096, 16 * 1024, 64 * 1024]

    def app():
        for size in sizes:
            value = bytes(size)
            assert (yield from client.set(b"s%d" % size, value)).status \
                is SetStatus.APPLIED
            got = yield from client.get(b"s%d" % size)
            assert got.hit
            assert got.value == value

    run(cell, app())


def test_get_multi_batches_in_parallel():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=6))
    client = cell.connect_client()

    def app():
        for i in range(20):
            yield from client.set(b"key-%d" % i, b"v%d" % i)
        start = cell.sim.now
        results = yield from client.get_multi(
            [b"key-%d" % i for i in range(20)])
        batch_latency = cell.sim.now - start
        assert all(r.hit for r in results)
        assert [r.value for r in results] == [b"v%d" % i for i in range(20)]
        # A 20-wide batch must complete far faster than 20 serial gets.
        single = results[0].latency
        assert batch_latency < 20 * single
        return True

    assert run(cell, app())


def test_overwrite_is_read_after_write_consistent():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3))
    client = cell.connect_client()

    def app():
        for i in range(30):
            value = b"gen-%d" % i
            yield from client.set(b"k", value)
            got = yield from client.get(b"k")
            assert got.hit and got.value == value

    run(cell, app())


def test_two_clients_see_each_others_writes():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3))
    writer = cell.connect_client()
    reader = cell.connect_client()

    def app():
        yield from writer.set(b"shared", b"from-writer")
        got = yield from reader.get(b"shared")
        assert got.hit and got.value == b"from-writer"
        yield from reader.set(b"shared", b"from-reader")
        got = yield from writer.get(b"shared")
        assert got.hit and got.value == b"from-reader"

    run(cell, app())


def test_second_set_wins_by_version():
    """Two sequential writers: the later TrueTime-stamped SET prevails."""
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3))
    a = cell.connect_client()
    b = cell.connect_client()

    def app():
        yield from a.set(b"k", b"a-value")
        yield from b.set(b"k", b"b-value")
        # A stale write from a's past (older TrueTime) is superseded.
        got = yield from a.get(b"k")
        assert got.value == b"b-value"

    run(cell, app())


def test_hit_latency_far_below_rpc_get():
    """The headline: RMA GETs are much cheaper than RPC GETs."""
    spec = CellSpec(mode=ReplicationMode.R1, num_shards=2, transport="pony")
    cell = Cell(spec)
    rma_client = cell.connect_client(strategy=GetStrategy.SCAR)
    rpc_client = cell.connect_client(strategy=GetStrategy.RPC)

    def app():
        yield from rma_client.set(b"k", b"v" * 64)
        rma = yield from rma_client.get(b"k")
        rpc = yield from rpc_client.get(b"k")
        assert rma.hit and rpc.hit
        return rma.latency, rpc.latency

    rma_latency, rpc_latency = run(cell, app())
    assert rma_latency < rpc_latency


def test_client_cpu_rma_vs_rpc():
    spec = CellSpec(mode=ReplicationMode.R1, num_shards=2, transport="pony")

    def measure(strategy):
        cell = Cell(spec)
        client = cell.connect_client(strategy=strategy)

        def app():
            yield from client.set(b"k", b"v" * 64)
            base = client.host.ledger.total() + \
                sum(b.host.ledger.total() for b in cell.backends.values())
            for _ in range(50):
                yield from client.get(b"k")
            total = client.host.ledger.total() + \
                sum(b.host.ledger.total() for b in cell.backends.values())
            return (total - base) / 50

        return cell.sim.run(until=cell.sim.process(app()))

    rma_cpu = measure(GetStrategy.SCAR)
    rpc_cpu = measure(GetStrategy.RPC)
    assert rpc_cpu > 50e-6        # the >50us Stubby floor
    assert rma_cpu < rpc_cpu / 5  # RMA is many times cheaper


def test_stats_track_operations():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3))
    client = cell.connect_client()

    def app():
        yield from client.set(b"k", b"v")
        yield from client.get(b"k")
        yield from client.get(b"absent")

    run(cell, app())
    assert client.stats["gets"] == 2
    assert client.stats["hits"] == 1
    assert client.stats["misses"] == 1
    assert client.stats["sets"] == 1


def test_touch_flush_reaches_backends():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3))
    client = cell.connect_client(
        client_config=ClientConfig(touch_flush_interval=1e-3))

    def app():
        yield from client.set(b"k", b"v")
        yield from client.get(b"k")
        yield cell.sim.timeout(5e-3)  # let the flusher run

    run(cell, app())
    key_hash = client.placement.key_hash(b"k")
    touched = [b for b in cell.backends.values()
               if b.shard >= 0 and key_hash in b.policy]
    assert touched  # at least the serving replicas saw the access
