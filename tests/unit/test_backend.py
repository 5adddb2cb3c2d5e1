"""Unit tests for backend mutation handlers, eviction, and reshaping."""


from repro.core import (BackendConfig, Cell, CellSpec, ReplicationMode,
                        TrueTime, VersionFactory)
from repro.rpc import Principal, connect as rpc_connect


def build_cell(backend_config=None, num_shards=1, mode=ReplicationMode.R1,
               transport="pony"):
    spec = CellSpec(mode=mode, num_shards=num_shards, transport=transport,
                    backend_config=backend_config or BackendConfig())
    return Cell(spec)


def channel_to(cell, task="backend-0"):
    backend = cell.backend_by_task(task)
    host = cell.fabric.add_host("host/test-driver")
    return rpc_connect(cell.sim, cell.fabric, host, backend.rpc_server,
                       Principal("test")), backend


def call(cell, channel, method, payload, **kwargs):
    def caller():
        return (yield from channel.call(method, payload, **kwargs))
    return cell.sim.run(until=cell.sim.process(caller()))


def versions_for(cell, client_id=77):
    return VersionFactory(client_id, TrueTime(cell.sim))


def do_set(cell, channel, key, value, version):
    return call(cell, channel, "Set",
                {"key": key, "value": value, "version": version.pack()})


def test_set_and_lookup_roundtrip():
    cell = build_cell()
    channel, backend = channel_to(cell)
    versions = versions_for(cell)
    reply = do_set(cell, channel, b"k", b"v", versions.next())
    assert reply["applied"]
    lookup = call(cell, channel, "Lookup", {"key": b"k"})
    assert lookup["found"]
    assert lookup["value"] == b"v"
    assert backend.stats.sets_applied == 1


def test_set_rejects_stale_version():
    cell = build_cell()
    channel, backend = channel_to(cell)
    versions = versions_for(cell)
    v1, v2 = versions.next(), versions.next()
    assert do_set(cell, channel, b"k", b"new", v2)["applied"]
    reply = do_set(cell, channel, b"k", b"old", v1)
    assert not reply["applied"]
    assert reply["reason"] == "superseded"
    assert call(cell, channel, "Lookup", {"key": b"k"})["value"] == b"new"
    assert backend.stats.sets_superseded == 1


def test_set_overwrites_with_newer_version():
    cell = build_cell()
    channel, _backend = channel_to(cell)
    versions = versions_for(cell)
    do_set(cell, channel, b"k", b"one", versions.next())
    do_set(cell, channel, b"k", b"two", versions.next())
    assert call(cell, channel, "Lookup", {"key": b"k"})["value"] == b"two"


def test_erase_installs_tombstone_blocking_late_set():
    cell = build_cell()
    channel, backend = channel_to(cell)
    versions = versions_for(cell)
    v_set, v_late_set, v_erase = (versions.next(), versions.next(),
                                  versions.next())
    do_set(cell, channel, b"k", b"v", v_set)
    reply = call(cell, channel, "Erase",
                 {"key": b"k", "version": v_erase.pack()})
    assert reply["applied"]
    assert not call(cell, channel, "Lookup", {"key": b"k"})["found"]
    # A SET whose version predates the erase must not resurrect the value.
    late = do_set(cell, channel, b"k", b"zombie", v_late_set)
    assert not late["applied"]
    assert not call(cell, channel, "Lookup", {"key": b"k"})["found"]
    assert backend.stats.erases_applied == 1


def test_erase_of_absent_key_still_tombstones():
    cell = build_cell()
    channel, backend = channel_to(cell)
    versions = versions_for(cell)
    v_old, v_erase = versions.next(), versions.next()
    assert call(cell, channel, "Erase",
                {"key": b"ghost", "version": v_erase.pack()})["applied"]
    assert not do_set(cell, channel, b"ghost", b"v", v_old)["applied"]


def test_cas_applies_on_matching_version():
    cell = build_cell()
    channel, backend = channel_to(cell)
    versions = versions_for(cell)
    v1 = versions.next()
    do_set(cell, channel, b"k", b"v1", v1)
    reply = call(cell, channel, "Cas",
                 {"key": b"k", "value": b"v2",
                  "new_version": versions.next().pack(),
                  "expected_version": v1.pack()})
    assert reply["applied"]
    assert call(cell, channel, "Lookup", {"key": b"k"})["value"] == b"v2"
    assert backend.stats.cas_applied == 1


def test_cas_fails_on_version_mismatch():
    cell = build_cell()
    channel, backend = channel_to(cell)
    versions = versions_for(cell)
    v1 = versions.next()
    do_set(cell, channel, b"k", b"v1", v1)
    do_set(cell, channel, b"k", b"v2", versions.next())
    reply = call(cell, channel, "Cas",
                 {"key": b"k", "value": b"v3",
                  "new_version": versions.next().pack(),
                  "expected_version": v1.pack()})
    assert not reply["applied"]
    assert reply["reason"] == "version-mismatch"
    assert call(cell, channel, "Lookup", {"key": b"k"})["value"] == b"v2"
    assert backend.stats.cas_failed == 1


def test_info_reports_layout():
    cell = build_cell()
    channel, backend = channel_to(cell)
    info = call(cell, channel, "Info", {})
    assert info["num_buckets"] == backend.index.num_buckets
    assert info["ways"] == backend.index.ways
    assert info["index_region_id"] == backend.index.window.region_id
    assert info["supports_scar"] is True


def test_touch_ingestion_reorders_lru():
    cell = build_cell()
    channel, backend = channel_to(cell)
    versions = versions_for(cell)
    do_set(cell, channel, b"a", b"1", versions.next())
    do_set(cell, channel, b"b", b"2", versions.next())
    kh_a = backend.placement.key_hash(b"a")
    call(cell, channel, "Touch", {"key_hashes": [kh_a]})
    victim = next(backend.policy.victims())
    assert victim == backend.placement.key_hash(b"b")


def test_scan_summary_filters_by_primary_shard():
    cell = build_cell(num_shards=3, mode=ReplicationMode.R3_2)
    channel, backend = channel_to(cell)
    versions = versions_for(cell)
    for i in range(20):
        do_set(cell, channel, b"key-%d" % i, b"v", versions.next())
    summary = call(cell, channel, "ScanSummary", {"primary_shard": 0})
    placement = backend.placement
    for key_hash in summary["entries"]:
        assert placement.primary_shard(key_hash) == 0


def test_capacity_conflict_triggers_eviction():
    config = BackendConfig(
        data_initial_bytes=64 * 1024, data_virtual_limit=64 * 1024,
        slab_bytes=64 * 1024, num_buckets=256, ways=7)
    cell = build_cell(config)
    channel, backend = channel_to(cell)
    versions = versions_for(cell)
    # Each entry lands in a 16KB block; 64KB holds only 4.
    for i in range(10):
        reply = do_set(cell, channel, b"key-%d" % i, b"x" * 9000,
                       versions.next())
        assert reply["applied"]
    assert backend.stats.evictions_capacity > 0
    assert backend.index.used_entries <= 4


def test_associativity_conflict_spills_to_overflow():
    config = BackendConfig(num_buckets=1, ways=2,
                           overflow_rpc_fallback=True,
                           index_resize_load_factor=2.0)  # never resize
    cell = build_cell(config)
    channel, backend = channel_to(cell)
    versions = versions_for(cell)
    for i in range(4):
        assert do_set(cell, channel, b"key-%d" % i, b"v",
                      versions.next())["applied"]
    assert backend.stats.overflow_inserts == 2
    assert backend.index.read_flags(0) & 0x1
    # Overflowed keys still served via the RPC lookup path.
    for i in range(4):
        assert call(cell, channel, "Lookup", {"key": b"key-%d" % i})["found"]


def test_associativity_conflict_evicts_without_fallback():
    config = BackendConfig(num_buckets=1, ways=2,
                           overflow_rpc_fallback=False,
                           index_resize_load_factor=2.0)  # never resize
    cell = build_cell(config)
    channel, backend = channel_to(cell)
    versions = versions_for(cell)
    for i in range(4):
        assert do_set(cell, channel, b"key-%d" % i, b"v",
                      versions.next())["applied"]
    assert backend.stats.evictions_associativity == 2
    assert backend.index.used_entries == 2


def test_index_resize_doubles_buckets_and_preserves_data():
    config = BackendConfig(num_buckets=2, ways=2,
                           index_resize_load_factor=0.5,
                           overflow_rpc_fallback=True)
    cell = build_cell(config)
    channel, backend = channel_to(cell)
    versions = versions_for(cell)
    for i in range(4):
        do_set(cell, channel, b"key-%d" % i, b"v%d" % i, versions.next())
    cell.sim.run(until=cell.sim.now + 1.0)  # let the async resize finish
    backend = cell.backend_by_task("backend-0")
    assert backend.stats.index_resizes >= 1
    assert backend.index.num_buckets >= 4
    for i in range(4):
        reply = call(cell, channel, "Lookup", {"key": b"key-%d" % i})
        assert reply["found"]
        assert reply["value"] == b"v%d" % i


def test_data_region_grows_at_watermark():
    config = BackendConfig(
        data_initial_bytes=128 * 1024, data_virtual_limit=1 << 20,
        slab_bytes=64 * 1024, grow_watermark=0.5)
    cell = build_cell(config)
    channel, backend = channel_to(cell)
    versions = versions_for(cell)
    before = backend.data.populated_bytes
    for i in range(30):
        do_set(cell, channel, b"key-%d" % i, b"x" * 4000, versions.next())
    cell.sim.run(until=cell.sim.now + 1.0)
    assert backend.stats.data_region_grows >= 1
    assert backend.data.populated_bytes > before
    assert backend.dram_used_bytes() > before


def test_migrate_in_bulk_applies_monotonically():
    cell = build_cell()
    channel, backend = channel_to(cell)
    versions = versions_for(cell)
    v_low, v_high = versions.next(), versions.next()
    do_set(cell, channel, b"k1", b"current", v_high)
    entries = [(b"k1", b"stale", v_low.pack()),
               (b"k2", b"fresh", versions.next().pack())]
    reply = call(cell, channel, "MigrateIn", {"entries": entries})
    assert reply["applied"] == 1  # only k2; k1 is older than stored
    assert call(cell, channel, "Lookup", {"key": b"k1"})["value"] == b"current"
    assert call(cell, channel, "Lookup", {"key": b"k2"})["value"] == b"fresh"


def test_snapshot_entries_covers_index_and_overflow():
    config = BackendConfig(num_buckets=1, ways=1, overflow_rpc_fallback=True)
    cell = build_cell(config)
    channel, backend = channel_to(cell)
    versions = versions_for(cell)
    do_set(cell, channel, b"a", b"1", versions.next())
    do_set(cell, channel, b"b", b"2", versions.next())  # spills
    snapshot = {k: v for k, v, _ in backend.snapshot_entries()}
    assert snapshot == {b"a": b"1", b"b": b"2"}


def test_adopt_config_id_stamps_buckets():
    cell = build_cell()
    _channel, backend = channel_to(cell)
    backend.adopt_config_id(42)
    from repro.core.index import parse_bucket
    raw = backend.index.window.read(0, backend.index.bucket_bytes)
    assert parse_bucket(raw, backend.index.ways).config_id == 42


def test_stopped_backend_revokes_windows():
    cell = build_cell()
    _channel, backend = channel_to(cell)
    index_window = backend.index.window
    backend.stop()
    assert index_window.revoked
    assert not backend.alive
