"""Property-based tests (hypothesis) on core data structures & invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.checksum import checksum_ok, kv_checksum
from repro.core.data import encode_entry_parts, entry_size, try_decode
from repro.core.hashing import Placement, default_key_hash
from repro.core.index import IndexRegion, make_scar_program, parse_bucket
from repro.core.quorum import (QuorumOutcome, ReplicaVote, evaluate)
from repro.core.slab import SlabAllocator
from repro.core.tombstone import TombstoneCache
from repro.core.version import VersionNumber
from repro.core.index import ParsedIndexEntry
from repro.transport import Arena, RmaOutOfBoundsError


versions = st.builds(VersionNumber,
                     truetime_micros=st.integers(0, 2 ** 40),
                     client_id=st.integers(0, 2 ** 20),
                     sequence=st.integers(0, 2 ** 20))

keys = st.binary(min_size=1, max_size=64)
values = st.binary(min_size=0, max_size=512)


# -- versions ---------------------------------------------------------------

@given(versions)
def test_version_pack_roundtrip(v):
    assert VersionNumber.unpack(v.pack()) == v


@given(versions, versions)
def test_version_order_matches_tuple_order(a, b):
    assert (a < b) == ((a.truetime_micros, a.client_id, a.sequence) <
                       (b.truetime_micros, b.client_id, b.sequence))


# -- checksums ------------------------------------------------------------

@given(keys, values, versions)
def test_checksum_roundtrip_always_validates(key, value, version):
    kh = default_key_hash(key)
    check = kv_checksum(key, value, version.pack(), kh)
    assert checksum_ok(key, value, version.pack(), kh, check)


@given(keys, values, values, versions)
def test_checksum_rejects_different_value(key, v1, v2, version):
    if v1 == v2:
        return
    kh = default_key_hash(key)
    check = kv_checksum(key, v1, version.pack(), kh)
    assert not checksum_ok(key, v2, version.pack(), kh, check)


# -- data entries ----------------------------------------------------------

@given(keys, values, versions)
def test_entry_encode_decode_roundtrip(key, value, version):
    kh = default_key_hash(key)
    body, check = encode_entry_parts(key, value, version, kh)
    assert len(body) + len(check) == entry_size(len(key), len(value))
    entry = try_decode(body + check)
    assert entry is not None
    assert entry.key == key
    assert entry.value == value
    assert entry.version == version
    assert entry.checksum_ok(kh)


@given(st.binary(max_size=256))
def test_decode_never_crashes_on_garbage(raw):
    entry = try_decode(raw)
    if entry is not None:
        # Decoding may succeed structurally, but never beyond the buffer.
        assert len(entry.key) + len(entry.value) <= len(raw)


@given(keys, values, versions, st.integers(0, 200), st.binary(min_size=1,
                                                              max_size=8))
def test_corrupted_entry_never_validates_silently(key, value, version,
                                                  position, junk):
    """Flip bytes anywhere: either decode fails or the checksum catches it."""
    kh = default_key_hash(key)
    body, check = encode_entry_parts(key, value, version, kh)
    raw = bytearray(body + check)
    position %= len(raw)
    original = bytes(raw)
    raw[position:position + len(junk)] = junk[:max(0, len(raw) - position)]
    if bytes(raw) == original:
        return
    entry = try_decode(bytes(raw))
    if entry is None:
        return
    if entry.key == key and entry.value == value and \
            entry.version == version:
        return  # semantic fields untouched (corruption hit padding)
    assert not entry.checksum_ok(kh)


# -- arena ------------------------------------------------------------------

ARENA_LIMIT = 16 * 1024

arena_ops = st.one_of(
    st.tuples(st.just("write"), st.integers(-8, ARENA_LIMIT + 8),
              st.binary(max_size=96)),
    st.tuples(st.just("read"), st.integers(-8, ARENA_LIMIT + 8),
              st.integers(-2, 96)),
    st.tuples(st.just("grow"), st.integers(0, ARENA_LIMIT + 64),
              st.none()))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, ARENA_LIMIT), st.lists(arena_ops, max_size=60))
def test_arena_matches_a_bytearray_that_really_grows(initial, ops):
    """The mapping with a ``populated`` mark against the backing it
    replaced: a plain bytearray, extended on grow, its length the only
    bound."""
    arena = Arena(initial, ARENA_LIMIT)
    reference = bytearray(initial)
    for op, at, arg in ops:
        if op == "grow":
            legal = len(reference) <= at <= ARENA_LIMIT
            try:
                arena.grow(at)
            except ValueError:
                assert not legal
            else:
                assert legal
                reference.extend(bytes(at - len(reference)))
            continue
        size = len(arg) if op == "write" else arg
        legal = at >= 0 and size >= 0 and at + size <= len(reference)
        try:
            got = arena.write(at, arg) if op == "write" \
                else arena.read(at, size)
        except RmaOutOfBoundsError:
            assert not legal
            continue
        assert legal
        if op == "write":
            reference[at:at + size] = arg
        else:
            assert got == bytes(reference[at:at + size])
        assert arena.populated == len(reference)
    assert arena.read(0, arena.populated) == bytes(reference)


# -- slab allocator ---------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["alloc", "free"]),
                          st.integers(1, 8192)), max_size=200))
def test_slab_never_double_allocates(ops):
    arena = Arena(512 * 1024, 512 * 1024)
    allocator = SlabAllocator(arena, slab_bytes=64 * 1024)
    live = {}
    for op, size in ops:
        if op == "alloc":
            offset = allocator.alloc(size)
            if offset is None:
                continue
            block = allocator.block_size(offset)
            # No overlap with any live block.
            for other, other_block in live.items():
                assert offset + block <= other or \
                    other + other_block <= offset
            assert block >= size
            live[offset] = block
        elif live:
            victim = sorted(live)[size % len(live)]
            allocator.free(victim)
            del live[victim]
    assert allocator.used_bytes == sum(live.values())


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 4096), min_size=1, max_size=100))
def test_slab_alloc_free_all_restores_emptiness(sizes):
    arena = Arena(1024 * 1024, 1024 * 1024)
    allocator = SlabAllocator(arena, slab_bytes=64 * 1024)
    offsets = [allocator.alloc(s) for s in sizes]
    for offset in offsets:
        if offset is not None:
            allocator.free(offset)
    assert allocator.used_bytes == 0


# -- tombstones ---------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10), versions), max_size=100),
       st.integers(1, 8))
def test_tombstone_floor_is_conservative(erases, capacity):
    """version_floor never under-reports: any erase recorded for a key is
    bounded above by the floor reported later (exact or via summary)."""
    cache = TombstoneCache(capacity=capacity)
    highest = {}
    for key_i, version in erases:
        kh = key_i.to_bytes(16, "little")
        cache.note_erase(kh, version)
        highest[kh] = max(highest.get(kh, VersionNumber.zero()), version)
    for kh, recorded in highest.items():
        # The floor must never under-report a recorded erase: a SET below
        # the highest erase version must always be rejected.
        assert cache.version_floor(kh) >= recorded


# -- quorum ---------------------------------------------------------------

def _vote(task, kind, version_n=0):
    if kind == "absent":
        return ReplicaVote.absent(task)
    if kind == "error":
        return ReplicaVote.error(task)
    entry = ParsedIndexEntry(way=0, key_hash=b"h" * 16,
                             version=VersionNumber(version_n, 0, 0),
                             region_id=1, offset=0, size=8, valid=True)
    return ReplicaVote.present(task, entry)


vote_strategy = st.tuples(st.sampled_from(["present", "absent", "error"]),
                          st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(vote_strategy, min_size=0, max_size=3))
def test_quorum_decision_is_sound(vote_specs):
    """Whatever evaluate() decides must actually be supported by >= 2
    matching votes, and UNDECIDED only while more votes could arrive."""
    votes = [_vote(f"t{i}", kind, n)
             for i, (kind, n) in enumerate(vote_specs)]
    decision = evaluate(votes, total_replicas=3, quorum=2)
    if decision.outcome is QuorumOutcome.PRESENT:
        matching = [v for v in votes
                    if v.version == decision.version and
                    v.kind.value == "present"]
        assert len(matching) >= 2
        assert set(decision.members) == {v.task for v in matching}
    elif decision.outcome is QuorumOutcome.ABSENT:
        absents = [v for v in votes if v.kind.value == "absent"]
        assert len(absents) >= 2
    elif decision.outcome is QuorumOutcome.UNDECIDED:
        assert len(votes) < 3
    else:  # INQUORATE
        # With the outstanding votes (if any) no tally could reach 2.
        from collections import Counter
        tallies = Counter()
        for v in votes:
            if v.kind.value != "error":
                tallies[(v.kind.value, v.version)] += 1
        best = max(tallies.values(), default=0)
        assert best + (3 - len(votes)) < 2


@settings(max_examples=100, deadline=None)
@given(st.lists(vote_strategy, min_size=3, max_size=3))
def test_quorum_never_undecided_with_all_votes(vote_specs):
    votes = [_vote(f"t{i}", kind, n)
             for i, (kind, n) in enumerate(vote_specs)]
    decision = evaluate(votes, total_replicas=3, quorum=2)
    assert decision.outcome is not QuorumOutcome.UNDECIDED


# -- placement ----------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(keys, st.integers(1, 32), st.integers(1, 3))
def test_placement_shards_distinct_and_in_range(key, num_shards, replication):
    replication = min(replication, num_shards)
    placement = Placement(num_shards, replication)
    shards = placement.shards_for(placement.key_hash(key))
    assert len(shards) == replication
    assert len(set(shards)) == replication
    assert all(0 <= s < num_shards for s in shards)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n))))
def test_primaries_held_by_inverts_shards_for_primary(layout):
    """``p in primaries_held_by(s)`` iff ``s in shards_for_primary(p)``,
    for every layout with ``replication <= num_shards <= 64``."""
    num_shards, replication = layout
    placement = Placement(num_shards, replication)
    for shard in range(num_shards):
        held = placement.primaries_held_by(shard)
        assert len(held) == len(set(held)) == replication
        assert held[0] == shard
        for primary in range(num_shards):
            assert (primary in held) == \
                (shard in placement.shards_for_primary(primary))


# -- index region byte format ---------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(keys, versions, st.integers(0, 2 ** 30),
                          st.integers(1, 2 ** 20)),
                min_size=0, max_size=6))
def test_bucket_bytes_roundtrip_through_parse(entries):
    index = IndexRegion(num_buckets=1, ways=8, config_id=7)
    expected = {}
    for way, (key, version, offset, size) in enumerate(entries):
        kh = default_key_hash(key)
        index.write_entry(0, way, kh, version, 3, offset, size)
        expected[way] = (kh, version, offset, size)
    raw = index.window.read(0, index.bucket_bytes)
    parsed = parse_bucket(raw, 8)
    assert parsed.magic_ok
    for way, (kh, version, offset, size) in expected.items():
        entry = parsed.entries[way]
        assert entry.valid
        assert (entry.key_hash, entry.version, entry.offset, entry.size) == \
            (kh, version, offset, size)
    program = make_scar_program(8)
    for way, (kh, version, offset, size) in expected.items():
        assert program(raw, kh) is not None
