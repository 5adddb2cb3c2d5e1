"""Memory reshaping under live traffic (§4.1, Fig 3)."""

import pytest

from repro.core import (BackendConfig, Cell, CellSpec, GetStatus,
                        GetStrategy, ReplicationMode)


def run(cell, gen):
    return cell.sim.run(until=cell.sim.process(gen))


def test_index_resize_under_load_is_transparent_to_clients():
    """Clients retry through the resize via the RPC re-handshake path."""
    spec = CellSpec(
        mode=ReplicationMode.R1, num_shards=2, transport="pony",
        backend_config=BackendConfig(num_buckets=4, ways=2,
                                     index_resize_load_factor=0.6))
    cell = Cell(spec)
    client = cell.connect_client(strategy=GetStrategy.TWO_R)

    def app():
        # Insert enough keys to force several resizes while reading back.
        for i in range(60):
            yield from client.set(b"key-%d" % i, b"v%d" % i)
            got = yield from client.get(b"key-%d" % (i // 2))
            assert got.status is GetStatus.HIT
        yield cell.sim.timeout(1.0)
        return sum(b.stats.index_resizes for b in cell.serving_backends())

    resizes = run(cell, app())
    assert resizes >= 1
    # Stale views were refreshed via RPC at least once.
    assert client.stats["view_refreshes"] > 2  # beyond initial handshakes


def test_data_region_growth_under_load():
    spec = CellSpec(
        mode=ReplicationMode.R1, num_shards=1, transport="pony",
        backend_config=BackendConfig(
            data_initial_bytes=256 * 1024, data_virtual_limit=8 << 20,
            grow_watermark=0.6, slab_bytes=64 * 1024))
    cell = Cell(spec)
    client = cell.connect_client()
    backend = cell.backend_by_task("backend-0")
    initial = backend.data.populated_bytes

    def app():
        for i in range(200):
            yield from client.set(b"key-%d" % i, b"x" * 3000)
            if i % 10 == 0:
                got = yield from client.get(b"key-%d" % i)
                assert got.hit
        yield cell.sim.timeout(1.0)

    run(cell, app())
    assert backend.stats.data_region_grows >= 1
    assert backend.data.populated_bytes > initial
    # Virtual reservation far exceeds what is populated: provisioned for
    # common case, not peak.
    assert backend.data.populated_bytes < backend.data.arena.virtual_limit


def test_old_data_window_retired_after_grace():
    spec = CellSpec(
        mode=ReplicationMode.R1, num_shards=1, transport="pony",
        backend_config=BackendConfig(
            data_initial_bytes=128 * 1024, data_virtual_limit=4 << 20,
            grow_watermark=0.5, slab_bytes=64 * 1024,
            old_window_grace=10e-3))
    cell = Cell(spec)
    client = cell.connect_client()
    backend = cell.backend_by_task("backend-0")
    first_window = backend.data.active_window

    def app():
        for i in range(80):
            yield from client.set(b"key-%d" % i, b"x" * 3000)
        yield cell.sim.timeout(1.0)

    run(cell, app())
    assert backend.stats.data_region_grows >= 1
    assert first_window.revoked
    # Clients converged to the new window: reads still work.

    def verify():
        got = yield from client.get(b"key-79")
        return got.status

    assert run(cell, verify()) is GetStatus.HIT


def test_reads_continue_during_growth_with_old_pointers():
    """Entries written before a grow carry the old region id; reads of
    them must succeed until the old window is retired, then recover
    through re-reads of fresh index entries."""
    spec = CellSpec(
        mode=ReplicationMode.R1, num_shards=1, transport="pony",
        backend_config=BackendConfig(
            data_initial_bytes=128 * 1024, data_virtual_limit=4 << 20,
            grow_watermark=0.5, slab_bytes=64 * 1024,
            old_window_grace=50e-3))
    cell = Cell(spec)
    client = cell.connect_client()
    backend = cell.backend_by_task("backend-0")

    def app():
        yield from client.set(b"early", b"early-value")
        # Force growth.
        for i in range(60):
            yield from client.set(b"fill-%d" % i, b"x" * 3000)
        assert backend.stats.data_region_grows >= 1
        # Old pointer still readable during the grace window.
        got = yield from client.get(b"early")
        assert got.hit and got.value == b"early-value"
        yield cell.sim.timeout(1.0)
        # And after retirement too (validation/retry path handles it).
        got = yield from client.get(b"early")
        assert got.hit and got.value == b"early-value"

    run(cell, app())


def test_shrink_on_restart_reduces_footprint():
    spec = CellSpec(
        mode=ReplicationMode.R1, num_shards=1, transport="pony",
        backend_config=BackendConfig(data_initial_bytes=1 << 20,
                                     data_virtual_limit=8 << 20))
    cell = Cell(spec)
    backend = cell.backend_by_task("backend-0")
    before = backend.data.populated_bytes
    backend.shrink_data_region_on_restart(256 * 1024)
    assert backend.data.populated_bytes == 256 * 1024 < before


def test_shrink_requires_empty_region():
    spec = CellSpec(mode=ReplicationMode.R1, num_shards=1, transport="pony")
    cell = Cell(spec)
    client = cell.connect_client()

    def app():
        yield from client.set(b"k", b"v")

    run(cell, app())
    backend = cell.backend_by_task("backend-0")
    with pytest.raises(ValueError):
        backend.shrink_data_region_on_restart(128 * 1024)


def test_pointer_refresh_on_window_retirement():
    """Entries written before a grow are repointed to the live window
    when the old one retires, so fresh bucket fetches never name a
    revoked region."""
    spec = CellSpec(
        mode=ReplicationMode.R1, num_shards=1, transport="pony",
        backend_config=BackendConfig(
            data_initial_bytes=128 * 1024, data_virtual_limit=4 << 20,
            grow_watermark=0.5, slab_bytes=64 * 1024,
            old_window_grace=10e-3))
    cell = Cell(spec)
    client = cell.connect_client()
    backend = cell.backend_by_task("backend-0")

    def app():
        yield from client.set(b"early", b"early-value")
        for i in range(60):
            yield from client.set(b"fill-%d" % i, b"x" * 3000)
        yield cell.sim.timeout(1.0)  # grows + retirements settle

    run(cell, app())
    assert backend.stats.data_region_grows >= 1
    live_region = backend.data.region_id
    retired_ids = {w.region_id for w in backend.data.old_windows}
    for _bucket, entry in backend.index.entries():
        assert entry.region_id == live_region or \
            entry.region_id in retired_ids
        # No entry may point at a *revoked* window.
        if entry.region_id != live_region:
            assert not any(w.revoked and w.region_id == entry.region_id
                           for w in backend.data.old_windows)
