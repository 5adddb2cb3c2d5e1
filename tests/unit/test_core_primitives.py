"""Unit tests for hashing, checksums, TrueTime, and VersionNumbers."""

import pytest
from hypothesis import given, strategies as st

from repro.core.checksum import checksum_ok, kv_checksum
from repro.core.hashing import (KEY_HASH_BYTES, Placement, default_key_hash)
from repro.core.truetime import TrueTime
from repro.core.version import VersionFactory, VersionNumber
from repro.sim import RandomStream, Simulator


# -- hashing ---------------------------------------------------------------

def test_key_hash_is_128_bits_and_deterministic():
    h = default_key_hash(b"key-1")
    assert len(h) == KEY_HASH_BYTES
    assert h == default_key_hash(b"key-1")
    assert h != default_key_hash(b"key-2")


def test_placement_replicas_are_adjacent():
    placement = Placement(num_shards=10, replication=3)
    kh = placement.key_hash(b"some-key")
    shards = placement.shards_for(kh)
    assert len(shards) == 3
    primary = shards[0]
    assert shards == [primary, (primary + 1) % 10, (primary + 2) % 10]


def test_placement_r1_single_shard():
    placement = Placement(num_shards=5, replication=1)
    kh = placement.key_hash(b"k")
    assert len(placement.shards_for(kh)) == 1


def test_placement_wraps_modulo():
    placement = Placement(num_shards=3, replication=3)
    for key in [b"a", b"b", b"c", b"d"]:
        shards = placement.shards_for(placement.key_hash(key))
        assert sorted(shards) == [0, 1, 2]


def test_placement_cohort_excludes_self():
    placement = Placement(num_shards=10, replication=3)
    cohort = placement.cohort_of(4)
    assert 4 not in cohort
    # Shard 4 shares keys with shards 2,3 (as replica) and 5,6 (as primary).
    assert set(cohort) == {2, 3, 5, 6}


def test_placement_validates_args():
    with pytest.raises(ValueError):
        Placement(num_shards=0)
    with pytest.raises(ValueError):
        Placement(num_shards=3, replication=4)


def test_placement_custom_hash_function():
    placement = Placement(num_shards=4, replication=1,
                          hash_function=lambda key: bytes(16))
    assert placement.primary_shard(placement.key_hash(b"anything")) == 0


def test_keys_spread_over_shards():
    placement = Placement(num_shards=8, replication=1)
    counts = [0] * 8
    for i in range(4000):
        counts[placement.primary_shard(
            placement.key_hash(f"key-{i}".encode()))] += 1
    assert min(counts) > 300  # roughly uniform


# -- checksum ----------------------------------------------------------------

def test_checksum_roundtrip():
    version = VersionNumber(5, 1, 2).pack()
    kh = default_key_hash(b"k")
    check = kv_checksum(b"k", b"v", version, kh)
    assert checksum_ok(b"k", b"v", version, kh, check)


@pytest.mark.parametrize("mutation", [
    ("key", b"K", b"v", None, None),
    ("value", b"k", b"V", None, None),
    ("version", b"k", b"v", VersionNumber(9, 9, 9).pack(), None),
    ("keyhash", b"k", b"v", None, default_key_hash(b"other")),
])
def test_checksum_detects_any_field_change(mutation):
    _name, key, value, version, kh = mutation
    base_version = VersionNumber(5, 1, 2).pack()
    base_kh = default_key_hash(b"k")
    check = kv_checksum(b"k", b"v", base_version, base_kh)
    assert not checksum_ok(key, value, version or base_version,
                           kh or base_kh, check)


def test_checksum_detects_torn_value():
    version = VersionNumber(5, 1, 2).pack()
    kh = default_key_hash(b"k")
    check = kv_checksum(b"k", b"old-value!", version, kh)
    torn = b"old-vNEW!!"  # half old, half new bytes
    assert not checksum_ok(b"k", torn, version, kh, check)


# -- TrueTime -----------------------------------------------------------------

def test_truetime_is_monotone():
    sim = Simulator()
    tt = TrueTime(sim, epsilon=1e-3, stream=RandomStream(1, "tt"))
    values = []
    for _ in range(5):
        values.append(tt.now_micros())
    assert values == sorted(values)
    assert len(set(values)) == 5


def test_truetime_tracks_sim_time():
    sim = Simulator()
    tt = TrueTime(sim, epsilon=1e-6, stream=RandomStream(1, "tt"))
    first = tt.now_micros()
    sim.call_in(1.0, lambda: None)
    sim.run()
    later = tt.now_micros()
    assert later - first >= 0.9e6  # ~1 second in micros


def test_truetime_skew_bounded():
    sim = Simulator()
    for seed in range(20):
        tt = TrueTime(sim, epsilon=1e-3, stream=RandomStream(seed, "tt"))
        assert abs(tt._offset) <= 1e-3


# -- VersionNumber ---------------------------------------------------------

def test_version_ordering_truetime_dominates():
    assert VersionNumber(2, 0, 0) > VersionNumber(1, 99, 99)
    assert VersionNumber(1, 2, 0) > VersionNumber(1, 1, 99)
    assert VersionNumber(1, 1, 2) > VersionNumber(1, 1, 1)


version_fields = st.tuples(st.integers(0, 2 ** 64 - 1),
                           st.integers(0, 2 ** 32 - 1),
                           st.integers(0, 2 ** 32 - 1))


@given(st.lists(version_fields, min_size=1, max_size=6))
def test_version_order_is_tuple_order(fields):
    versions = [VersionNumber(*f) for f in fields]
    for f, v in zip(fields, versions):
        assert v <= v and v >= v and not v < v and not v > v
        for g, w in zip(fields, versions):
            assert (v < w, v <= w, v > w, v >= w, v == w) == \
                (f < g, f <= g, f > g, f >= g, f == g)
    assert max(versions) == VersionNumber(*max(fields))
    assert sorted(versions) == [VersionNumber(*f) for f in sorted(fields)]
    assert all(VersionNumber.unpack(v.pack()) == v for v in versions)


def test_version_pack_unpack_roundtrip():
    v = VersionNumber(123456789, 42, 7)
    assert VersionNumber.unpack(v.pack()) == v
    assert len(v.pack()) == 16


def test_version_zero():
    assert VersionNumber.zero().is_zero()
    assert not VersionNumber(1, 0, 0).is_zero()
    assert VersionNumber.zero() < VersionNumber(1, 0, 0)


def test_version_factory_monotone_per_client():
    sim = Simulator()
    tt = TrueTime(sim, stream=RandomStream(3, "tt"))
    factory = VersionFactory(client_id=9, truetime=tt)
    versions = [factory.next() for _ in range(10)]
    assert versions == sorted(versions)
    assert all(v.client_id == 9 for v in versions)


def test_version_factories_globally_unique():
    sim = Simulator()
    factories = [VersionFactory(i, TrueTime(sim, stream=RandomStream(i, "t")))
                 for i in range(5)]
    versions = [f.next() for f in factories for _ in range(20)]
    assert len(set(versions)) == len(versions)
