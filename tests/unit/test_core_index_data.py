"""Unit tests for the index region, data entries, and the slab allocator."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.data import (DataRegion, encode_entry_parts, entry_size,
                             try_decode)
from repro.core.hashing import default_key_hash
from repro.core.index import (ENTRY, ENTRY_BYTES, ENTRY_FLAG_VALID,
                              IndexRegion, ParsedIndexEntry, bucket_size,
                              make_scar_program, parse_bucket)
from repro.core.slab import SlabAllocator
from repro.core.version import VersionNumber
from repro.transport import Arena


V1 = VersionNumber(100, 1, 1)
V2 = VersionNumber(200, 1, 2)


# -- index region -------------------------------------------------------------

def test_bucket_size_layout():
    assert bucket_size(7) == 16 + 7 * ENTRY_BYTES


def test_index_write_read_entry():
    index = IndexRegion(num_buckets=8, ways=4, config_id=3)
    kh = default_key_hash(b"k")
    index.write_entry(2, 1, kh, V1, region_id=9, offset=1024, size=128)
    entry = index.read_entry(2, 1)
    assert entry.valid
    assert entry.key_hash == kh
    assert entry.version == V1
    assert (entry.region_id, entry.offset, entry.size) == (9, 1024, 128)


def test_index_clear_entry():
    index = IndexRegion(num_buckets=8, ways=4, config_id=0)
    kh = default_key_hash(b"k")
    index.write_entry(0, 0, kh, V1, 1, 0, 64)
    assert index.used_entries == 1
    index.clear_entry(0, 0)
    assert not index.read_entry(0, 0).valid
    assert index.used_entries == 0


def test_index_find_way_and_free_way():
    index = IndexRegion(num_buckets=4, ways=2, config_id=0)
    kh1, kh2 = default_key_hash(b"a"), default_key_hash(b"b")
    index.write_entry(1, 0, kh1, V1, 1, 0, 64)
    assert index.find_way(1, kh1) == 0
    assert index.find_way(1, kh2) is None
    assert index.find_free_way(1) == 1
    index.write_entry(1, 1, kh2, V1, 1, 64, 64)
    assert index.find_free_way(1) is None


def test_index_load_factor():
    index = IndexRegion(num_buckets=2, ways=2, config_id=0)
    assert index.load_factor == 0.0
    index.write_entry(0, 0, default_key_hash(b"a"), V1, 1, 0, 64)
    assert index.load_factor == 0.25


def test_index_bucket_for_is_stable_and_in_range():
    index = IndexRegion(num_buckets=16, ways=4, config_id=0)
    for i in range(100):
        kh = default_key_hash(f"key-{i}".encode())
        b = index.bucket_for(kh)
        assert 0 <= b < 16
        assert b == index.bucket_for(kh)


def test_parse_bucket_roundtrip():
    index = IndexRegion(num_buckets=4, ways=3, config_id=7)
    kh = default_key_hash(b"k")
    index.write_entry(2, 1, kh, V2, region_id=5, offset=256, size=99)
    raw = index.window.read(index.bucket_offset(2), index.bucket_bytes)
    bucket = parse_bucket(raw, ways=3)
    assert bucket.magic_ok
    assert bucket.config_id == 7
    assert not bucket.overflow
    found = bucket.find(kh)
    assert found is not None
    assert found.version == V2
    assert (found.region_id, found.offset, found.size) == (5, 256, 99)


def test_parse_bucket_rejects_short_input():
    with pytest.raises(ValueError):
        parse_bucket(b"short", ways=3)


def test_overflow_bit_roundtrip():
    index = IndexRegion(num_buckets=2, ways=2, config_id=0)
    index.set_overflow(1, True)
    raw = index.window.read(index.bucket_offset(1), index.bucket_bytes)
    assert parse_bucket(raw, 2).overflow
    index.set_overflow(1, False)
    raw = index.window.read(index.bucket_offset(1), index.bucket_bytes)
    assert not parse_bucket(raw, 2).overflow


def test_set_config_id_rewrites_all_headers():
    index = IndexRegion(num_buckets=3, ways=2, config_id=1)
    index.set_overflow(2, True)
    index.set_config_id(9)
    for b in range(3):
        raw = index.window.read(index.bucket_offset(b), index.bucket_bytes)
        assert parse_bucket(raw, 2).config_id == 9
    # Flags survive the rewrite.
    raw = index.window.read(index.bucket_offset(2), index.bucket_bytes)
    assert parse_bucket(raw, 2).overflow


def test_scar_program_matches_entry():
    index = IndexRegion(num_buckets=2, ways=3, config_id=0)
    kh = default_key_hash(b"k")
    index.write_entry(0, 2, kh, V1, region_id=8, offset=512, size=77)
    raw = index.window.read(index.bucket_offset(0), index.bucket_bytes)
    program = make_scar_program(ways=3)
    assert program(raw, kh) == (8, 512, 77)
    assert program(raw, default_key_hash(b"other")) is None


def test_index_entries_iterator():
    index = IndexRegion(num_buckets=4, ways=2, config_id=0)
    khs = [default_key_hash(f"{i}".encode()) for i in range(3)]
    index.write_entry(0, 0, khs[0], V1, 1, 0, 10)
    index.write_entry(1, 1, khs[1], V1, 1, 16, 10)
    index.write_entry(3, 0, khs[2], V1, 1, 32, 10)
    found = {entry.key_hash for _b, entry in index.entries()}
    assert found == set(khs)


# -- the in-place way-scan against its reference -------------------------------
#
# The reference is the straightforward way to read an index: copy one
# entry out of the arena, unpack all of it, look at the object. The
# region, the client-side parse and the SCAR program share one in-place
# scan instead; every answer they give must be the reference's.

def ref_read_entry(index, bucket, way):
    raw = index.arena.read(index.entry_offset(bucket, way), ENTRY_BYTES)
    kh, ver, region, offset, size, eflags = ENTRY.unpack(raw)
    return ParsedIndexEntry(
        way=way, key_hash=kh, version=VersionNumber.unpack(ver),
        region_id=region, offset=offset, size=size,
        valid=bool(eflags & ENTRY_FLAG_VALID))


def ref_find_way(index, bucket, key_hash):
    for way in range(index.ways):
        entry = ref_read_entry(index, bucket, way)
        if entry.valid and entry.key_hash == key_hash:
            return way
    return None


def ref_find_free_way(index, bucket):
    for way in range(index.ways):
        if not ref_read_entry(index, bucket, way).valid:
            return way
    return None


def ref_entries(index):
    return [(bucket, entry)
            for bucket in range(index.num_buckets)
            for entry in (ref_read_entry(index, bucket, way)
                          for way in range(index.ways))
            if entry.valid]


# Duplicates and near misses: same tag twice, first / last byte off by one,
# a prefix of another tag, the all-zero tag a never-written way carries.
_BASE = default_key_hash(b"scan")
TAGS = [_BASE,
        bytes([_BASE[0] ^ 1]) + _BASE[1:],
        _BASE[:15] + bytes([_BASE[15] ^ 1]),
        _BASE[:8] + bytes(8),
        bytes(16),
        default_key_hash(b"other")]
ABSENT_TAG = default_key_hash(b"never stored")

# One way's history: never written; written; written then cleared;
# written twice (an overwrite); or raw bytes with a garbage flag word put
# there behind the region's back (only bit 0 means "valid").
way_specs = st.one_of(
    st.just(("never",)),
    st.tuples(st.just("write"), st.sampled_from(TAGS)),
    st.tuples(st.just("clear"), st.sampled_from(TAGS)),
    st.tuples(st.just("overwrite"), st.sampled_from(TAGS),
              st.sampled_from(TAGS)),
    st.tuples(st.just("garbage"), st.sampled_from(TAGS),
              st.integers(0, 2 ** 32 - 1)))


@st.composite
def index_tables(draw):
    num_buckets = draw(st.integers(1, 4))
    ways = draw(st.integers(1, 7))
    table = draw(st.lists(way_specs, min_size=num_buckets * ways,
                          max_size=num_buckets * ways))
    return num_buckets, ways, table


def build_index(num_buckets, ways, table):
    """Apply the table through the public API, check the counter, then
    plant the garbage ways (which no counter could know about)."""
    index = IndexRegion(num_buckets, ways, config_id=5)
    cells = [(bucket, way) for bucket in range(num_buckets)
             for way in range(ways)]
    for n, ((bucket, way), spec) in enumerate(zip(cells, table)):
        version = VersionNumber(1000 + n, n % 3, n)
        if spec[0] in ("write", "clear", "overwrite"):
            index.write_entry(bucket, way, spec[1], version, 7, 64 * n, 10 + n)
        if spec[0] == "clear":
            index.clear_entry(bucket, way)
        if spec[0] == "overwrite":
            index.write_entry(bucket, way, spec[2], version, 8, 64 * n, 20 + n)
    assert index.used_entries == len(ref_entries(index))
    for n, ((bucket, way), spec) in enumerate(zip(cells, table)):
        if spec[0] == "garbage":
            index.arena.write(
                index.entry_offset(bucket, way),
                ENTRY.pack(spec[1], VersionNumber(9, 9, n).pack(), 3, n, n,
                           spec[2]))
    return index


@settings(max_examples=150, deadline=None)
@given(index_tables())
def test_in_place_scan_equals_the_read_entry_reference(table):
    num_buckets, ways, specs = table
    index = build_index(num_buckets, ways, specs)
    program = make_scar_program(ways)
    assert list(index.entries()) == ref_entries(index)
    for bucket in range(num_buckets):          # bucket 0 … the last bucket
        assert index.find_free_way(bucket) == ref_find_free_way(index, bucket)
        raw = index.window.read(index.bucket_offset(bucket),
                                index.bucket_bytes)
        parsed = parse_bucket(raw, ways)
        reference = tuple(ref_read_entry(index, bucket, way)
                          for way in range(ways))
        assert tuple(index.read_entry(bucket, way)
                     for way in range(ways)) == reference
        assert parsed.entries == reference
        for tag in TAGS + [ABSENT_TAG]:
            way = ref_find_way(index, bucket, tag)
            assert index.find_way(bucket, tag) == way
            if way is None:
                assert parsed.find(tag) is None
                assert program(raw, tag) is None
            else:
                entry = reference[way]
                assert parsed.find(tag) == entry
                assert program(raw, tag) == (entry.region_id, entry.offset,
                                             entry.size)


def ref_region_bytes(num_buckets, ways, config_id, overflowed=()):
    """The index bytes as the header-at-a-time code laid them out: one
    packed header per bucket over zeroed ways; ``set_overflow`` and
    ``set_config_id`` rewrite whole headers."""
    return b"".join(
        struct.pack("<IIII", 0xC11C3A90, config_id,
                    1 if bucket in overflowed else 0, 0) +
        bytes(ways * ENTRY_BYTES) for bucket in range(num_buckets))


@pytest.mark.parametrize("num_buckets,ways", [(1, 1), (3, 2), (512, 7)])
def test_region_is_stamped_byte_identically(num_buckets, ways):
    index = IndexRegion(num_buckets, ways, config_id=0xABCD)

    def whole():
        return index.arena.read(0, index.total_bytes)

    assert index.total_bytes == num_buckets * bucket_size(ways)
    assert whole() == ref_region_bytes(num_buckets, ways, 0xABCD)
    last = num_buckets - 1
    index.set_overflow(last, True)
    index.set_overflow(0, True)
    assert whole() == ref_region_bytes(num_buckets, ways, 0xABCD, {0, last})
    index.set_config_id(0x1234)
    assert whole() == ref_region_bytes(num_buckets, ways, 0x1234, {0, last})
    index.set_overflow(0, False)
    assert whole() == ref_region_bytes(num_buckets, ways, 0x1234,
                                       {last} - {0})


def test_scan_range_checks_stay():
    index = IndexRegion(num_buckets=2, ways=2, config_id=0)
    for call in (lambda: index.find_way(2, TAGS[0]),
                 lambda: index.find_free_way(-1),
                 lambda: index.read_entry(0, 2),
                 lambda: index.write_entry(2, 0, TAGS[0], V1, 1, 0, 1),
                 lambda: index.clear_entry(0, -1)):
        with pytest.raises(IndexError):
            call()


# -- data entries ------------------------------------------------------------

def test_encode_decode_roundtrip():
    kh = default_key_hash(b"key")
    body, check = encode_entry_parts(b"key", b"value", V1, kh)
    entry = try_decode(body + check)
    assert entry is not None
    assert entry.key == b"key"
    assert entry.value == b"value"
    assert entry.version == V1
    assert entry.checksum_ok(kh)
    assert len(body + check) == entry_size(3, 5)


def test_decode_detects_wrong_keyhash():
    kh = default_key_hash(b"key")
    body, check = encode_entry_parts(b"key", b"value", V1, kh)
    entry = try_decode(body + check)
    assert not entry.checksum_ok(default_key_hash(b"other"))


def test_decode_detects_torn_bytes():
    kh = default_key_hash(b"key")
    body, check = encode_entry_parts(b"key", b"value-old!", V1, kh)
    raw = bytearray(body + check)
    raw[-12:-8] = b"NEW!"  # tear inside the value
    entry = try_decode(bytes(raw))
    assert entry is not None
    assert not entry.checksum_ok(kh)


def test_decode_survives_garbage_lengths():
    assert try_decode(b"") is None
    assert try_decode(b"\xff" * 16) is None
    # Length fields claiming more data than present must not crash.
    assert try_decode(b"\xff" * 40) is None


# -- slab allocator ----------------------------------------------------------

def test_slab_alloc_free_roundtrip():
    arena = Arena(256 * 1024, 256 * 1024)
    allocator = SlabAllocator(arena, slab_bytes=64 * 1024, min_block=64)
    off = allocator.alloc(100)
    assert off is not None
    assert allocator.block_size(off) == 128
    assert allocator.used_bytes == 128
    allocator.free(off)
    assert allocator.used_bytes == 0


def test_slab_size_class_rounding():
    arena = Arena(256 * 1024, 256 * 1024)
    allocator = SlabAllocator(arena, min_block=64)
    assert allocator.class_for(1) == 64
    assert allocator.class_for(64) == 64
    assert allocator.class_for(65) == 128
    assert allocator.class_for(10 ** 9) is None


def test_slab_distinct_offsets():
    arena = Arena(256 * 1024, 256 * 1024)
    allocator = SlabAllocator(arena)
    offsets = {allocator.alloc(64) for _ in range(100)}
    assert None not in offsets
    assert len(offsets) == 100


def test_slab_exhaustion_returns_none():
    arena = Arena(64 * 1024, 64 * 1024)
    allocator = SlabAllocator(arena, slab_bytes=64 * 1024, min_block=64)
    count = 0
    while allocator.alloc(32 * 1024) is not None:
        count += 1
    assert count == 2  # one slab of 64KB holds two 32KB blocks
    assert not allocator.can_satisfy(32 * 1024)


def test_slab_repurposing_between_classes():
    arena = Arena(64 * 1024, 64 * 1024)
    allocator = SlabAllocator(arena, slab_bytes=64 * 1024, min_block=64)
    big = allocator.alloc(32 * 1024)
    allocator.free(big)
    # The now-empty slab can serve a different size class.
    small = allocator.alloc(64)
    assert small is not None
    assert allocator.block_size(small) == 64


def test_slab_free_unknown_offset_raises():
    arena = Arena(64 * 1024, 64 * 1024)
    allocator = SlabAllocator(arena)
    with pytest.raises(ValueError):
        allocator.free(12345)


def test_slab_sees_arena_growth():
    arena = Arena(64 * 1024, 256 * 1024)
    allocator = SlabAllocator(arena, slab_bytes=64 * 1024, min_block=64)
    a = allocator.alloc(64 * 1024)
    assert a is not None
    assert allocator.alloc(64 * 1024) is None
    arena.grow(128 * 1024)
    assert allocator.can_satisfy(64 * 1024)
    assert allocator.alloc(64 * 1024) is not None


# -- data region -------------------------------------------------------------

def test_data_region_grow_opens_new_window():
    region = DataRegion(initial_bytes=64 * 1024, virtual_limit=1024 * 1024)
    old_id = region.region_id
    old_window = region.active_window
    region.grow(128 * 1024)
    assert region.region_id != old_id
    assert region.populated_bytes == 128 * 1024
    # Old window is still readable (clients converge lazily)...
    region.write_at(0, b"live")
    assert old_window.read(0, 4) == b"live"
    # ...until retired.
    retired = region.retire_oldest_window()
    assert retired is old_window
    assert old_window.revoked
