"""Unit tests for eviction policies and the tombstone cache."""

import pytest

from repro.core.eviction import ArcPolicy, LruPolicy, RandomPolicy, make_policy
from repro.core.tombstone import TombstoneCache
from repro.core.version import VersionNumber


def kh(i):
    return i.to_bytes(16, "little")


# -- LRU ---------------------------------------------------------------------

def test_lru_evicts_oldest_first():
    policy = LruPolicy()
    for i in range(3):
        policy.record_insert(kh(i))
    gen = policy.victims()
    assert next(gen) == kh(0)


def test_lru_access_refreshes_recency():
    policy = LruPolicy()
    for i in range(3):
        policy.record_insert(kh(i))
    policy.record_access(kh(0))
    assert next(policy.victims()) == kh(1)


def test_lru_remove():
    policy = LruPolicy()
    policy.record_insert(kh(1))
    policy.record_remove(kh(1))
    assert kh(1) not in policy
    assert len(policy) == 0


def test_lru_victims_walk_handles_skips():
    policy = LruPolicy()
    for i in range(3):
        policy.record_insert(kh(i))
    gen = policy.victims()
    first = next(gen)
    # Backend decided not to evict first (e.g. size class mismatch);
    # the walk must progress to another key.
    second = next(gen)
    assert second != first


def test_lru_access_of_unknown_key_is_noop():
    policy = LruPolicy()
    policy.record_access(kh(9))
    assert len(policy) == 0


# -- Random --------------------------------------------------------------------

def test_random_policy_yields_all_residents():
    policy = RandomPolicy()
    for i in range(5):
        policy.record_insert(kh(i))
    seen = set()
    gen = policy.victims()
    for _ in range(5):
        victim = next(gen)
        seen.add(victim)
        policy.record_remove(victim)
    assert seen == {kh(i) for i in range(5)}


# -- ARC ----------------------------------------------------------------------

def test_arc_single_access_stays_in_t1():
    policy = ArcPolicy(capacity=10)
    policy.record_insert(kh(1))
    assert kh(1) in policy.t1
    assert kh(1) not in policy.t2


def test_arc_second_access_promotes_to_t2():
    policy = ArcPolicy(capacity=10)
    policy.record_insert(kh(1))
    policy.record_access(kh(1))
    assert kh(1) in policy.t2
    assert kh(1) not in policy.t1


def test_arc_ghost_hit_adjusts_p():
    policy = ArcPolicy(capacity=10)
    policy.record_insert(kh(1))
    policy.record_remove(kh(1))     # to B1 ghost
    assert kh(1) in policy.b1
    before = policy.p
    policy.record_insert(kh(1))     # ghost hit: p grows, key -> T2
    assert policy.p > before
    assert kh(1) in policy.t2


def test_arc_frequency_ghost_hit_shrinks_p():
    policy = ArcPolicy(capacity=10)
    policy.p = 5.0
    policy.record_insert(kh(1))
    policy.record_access(kh(1))     # T2
    policy.record_remove(kh(1))     # B2 ghost
    policy.record_insert(kh(1))
    assert policy.p < 5.0
    assert kh(1) in policy.t2


def test_arc_prefers_evicting_recency_list():
    policy = ArcPolicy(capacity=10)
    policy.record_insert(kh(1))     # T1 (seen once)
    policy.record_insert(kh(2))
    policy.record_access(kh(2))     # T2 (seen twice)
    assert next(policy.victims()) == kh(1)


def test_arc_ghost_lists_bounded():
    policy = ArcPolicy(capacity=4)
    for i in range(20):
        policy.record_insert(kh(i))
        policy.record_remove(kh(i))
    assert len(policy.b1) <= 4


def test_arc_hits_frequent_workload_better_than_lru():
    """A scan workload: ARC keeps frequent keys; LRU flushes them."""
    hot = [kh(i) for i in range(4)]
    capacity = 8

    def run(policy):
        resident = set()
        hits = 0

        def touch(key):
            nonlocal hits
            if key in resident:
                hits += 1
                policy.record_access(key)
            else:
                if len(resident) >= capacity:
                    victim = next(policy.victims())
                    policy.record_remove(victim)
                    resident.discard(victim)
                policy.record_insert(key)
                resident.add(key)

        scan = 100
        for round_num in range(50):
            for key in hot:
                touch(key)
            # A scan of cold keys wider than the cache flushes LRU.
            for i in range(capacity):
                touch(kh(scan))
                scan += 1
        return hits

    assert run(ArcPolicy(capacity=capacity)) > run(LruPolicy())


def test_make_policy_factory():
    assert isinstance(make_policy("lru"), LruPolicy)
    assert isinstance(make_policy("arc"), ArcPolicy)
    assert isinstance(make_policy("random"), RandomPolicy)
    with pytest.raises(ValueError):
        make_policy("clock")


# -- tombstones ---------------------------------------------------------------

def v(n):
    return VersionNumber(n, 0, 0)


def test_tombstone_exact_lookup():
    cache = TombstoneCache(capacity=4)
    cache.note_erase(kh(1), v(10))
    assert cache.erased_version(kh(1)) == v(10)
    assert cache.version_floor(kh(1)) == v(10)


def test_tombstone_unknown_key_uses_summary():
    cache = TombstoneCache(capacity=2)
    for i in range(5):
        cache.note_erase(kh(i), v(10 + i))
    # Keys 0..2 were evicted; the summary bounds them above.
    assert cache.summary >= v(12)
    assert cache.version_floor(kh(0)) == cache.summary
    assert cache.evictions == 3


def test_tombstone_floor_zero_when_nothing_erased():
    cache = TombstoneCache()
    assert cache.version_floor(kh(1)) == VersionNumber.zero()


def test_tombstone_keeps_highest_version():
    cache = TombstoneCache()
    cache.note_erase(kh(1), v(10))
    cache.note_erase(kh(1), v(5))   # older: ignored
    assert cache.erased_version(kh(1)) == v(10)
    cache.note_erase(kh(1), v(20))
    assert cache.erased_version(kh(1)) == v(20)


def test_tombstone_forget():
    cache = TombstoneCache()
    cache.note_erase(kh(1), v(10))
    cache.forget(kh(1))
    assert cache.erased_version(kh(1)) is None


def test_tombstone_capacity_validated():
    with pytest.raises(ValueError):
        TombstoneCache(capacity=0)
