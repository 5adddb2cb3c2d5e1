"""Unit tests for data-region defragmentation (§4.1)."""


from repro.core import (BackendConfig, Cell, CellSpec, GetStatus,
                        GetStrategy, ReplicationMode)
from repro.rpc import Principal, connect as rpc_connect


def build():
    spec = CellSpec(
        mode=ReplicationMode.R1, num_shards=1, transport="pony",
        backend_config=BackendConfig(
            data_initial_bytes=512 * 1024, data_virtual_limit=512 * 1024,
            slab_bytes=64 * 1024, num_buckets=1024, ways=7))
    cell = Cell(spec)
    client = cell.connect_client(strategy=GetStrategy.TWO_R)
    backend = cell.backend_by_task("backend-0")
    return cell, client, backend


def fragment(cell, client, keep_every=8, count=200, size=900):
    """Fill with ~1KB entries then erase most, leaving sparse slabs."""

    def app():
        for i in range(count):
            result = yield from client.set(b"frag-%d" % i, b"x" * size)
            assert result.status.name == "APPLIED"
        for i in range(count):
            if i % keep_every != 0:
                yield from client.erase(b"frag-%d" % i)

    cell.sim.run(until=cell.sim.process(app()))


def test_defragment_compacts_sparse_slabs():
    cell, client, backend = build()
    fragment(cell, client)
    allocator = backend.data.allocator
    sparse_before = len(allocator.sparse_slabs(0.5))
    slabs_before = allocator.live_slab_count
    assert sparse_before > 1

    def run():
        moved = yield from backend.defragment(0.5)
        return moved

    moved = cell.sim.run(until=cell.sim.process(run()))
    assert moved > 0
    assert backend.stats.defrag_moves == moved
    assert allocator.live_slab_count < slabs_before
    assert len(allocator.sparse_slabs(0.5)) < sparse_before


def test_data_survives_defragmentation():
    cell, client, backend = build()
    fragment(cell, client)

    def run():
        yield from backend.defragment(0.9)  # aggressive compaction
        hits = 0
        for i in range(0, 200, 8):
            result = yield from client.get(b"frag-%d" % i)
            if result.hit and result.value == b"x" * 900:
                hits += 1
        return hits

    hits = cell.sim.run(until=cell.sim.process(run()))
    assert hits == 25


def test_defragment_frees_slabs_for_other_size_classes():
    cell, client, backend = build()
    fragment(cell, client)

    def run():
        yield from backend.defragment(0.9)
        # Freed slabs are repurposable: large values now fit.
        result = yield from client.set(b"big", b"y" * 30000)
        return result.status.name

    assert cell.sim.run(until=cell.sim.process(run())) == "APPLIED"


def test_defragment_rpc_handler():
    cell, client, backend = build()
    fragment(cell, client)
    host = cell.fabric.add_host("host/admin")
    channel = rpc_connect(cell.sim, cell.fabric, host, backend.rpc_server,
                          Principal("admin"))

    def call():
        reply = yield from channel.call("Defragment",
                                        {"occupancy_threshold": 0.6})
        return reply

    reply = cell.sim.run(until=cell.sim.process(call()))
    assert reply["moved"] > 0
    assert reply["live_slabs"] >= 1


def test_reads_racing_defrag_never_return_garbage():
    cell, client, backend = build()
    fragment(cell, client)
    results = []

    def reader():
        end = cell.sim.now + 2e-3
        while cell.sim.now < end:
            result = yield from client.get(b"frag-0")
            results.append(result)
            yield cell.sim.timeout(2e-6)

    def defrag():
        yield from backend.defragment(0.9)

    cell.sim.process(defrag())
    cell.sim.run(until=cell.sim.process(reader()))
    assert results
    for result in results:
        assert result.status is GetStatus.HIT
        assert result.value == b"x" * 900


def test_defragment_noop_when_already_compact():
    cell, client, backend = build()

    def app():
        for i in range(10):
            yield from client.set(b"k-%d" % i, b"x" * 900)
        moved = yield from backend.defragment(0.5)
        return moved

    # A mostly-empty region has one partially-filled slab per class at
    # most; compaction has nowhere better to put things.
    moved = cell.sim.run(until=cell.sim.process(app()))
    assert backend.resident_keys == 10
