"""Unit tests for the cache-miss pipeline (read-through coordinator)."""

import pytest

from repro.core import Cell, CellSpec, GetStatus, ReplicationMode, SetStatus
from repro.core.errors import CliqueMapError
from repro.storage import (MissPolicy, SystemOfRecord,
                           SystemOfRecordProtocol)


def build(policy=None, num_keys=8, throughput=None):
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))
    sor_host = cell.fabric.add_host("host/sor")
    sor = SystemOfRecord(cell.sim, sor_host, throughput=throughput)
    sor.load({b"sor-%03d" % i: b"durable-%d" % i for i in range(num_keys)})
    coordinator = cell.attach_sor(sor, policy or MissPolicy())
    return cell, sor, coordinator


def run(cell, gen):
    return cell.sim.run(until=cell.sim.process(gen))


# -- MissPolicy validation ---------------------------------------------------

def test_miss_policy_defaults_valid():
    policy = MissPolicy()
    assert policy.coalesce


@pytest.mark.parametrize("kwargs", [
    {"negative_ttl": -0.1},
    {"backfill_fill_rate": -1.0},
    {"dirty_buffer_max": 0},
    {"fetch_deadline": -1.0},
    {"fetch_retries": 0},
])
def test_miss_policy_rejects_bad_values(kwargs):
    with pytest.raises(CliqueMapError):
        MissPolicy(**kwargs)


# -- attach_sor --------------------------------------------------------------

def test_attach_sor_rejects_non_protocol():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))
    with pytest.raises(CliqueMapError):
        cell.attach_sor(object())
    cell.close()


def test_attach_sor_rejects_double_attach():
    cell, sor, _coordinator = build()
    assert isinstance(sor, SystemOfRecordProtocol)
    with pytest.raises(CliqueMapError):
        cell.attach_sor(sor)
    cell.close()


# -- single-flight coalescing ------------------------------------------------

def test_single_flight_coalesces_concurrent_fetches():
    cell, sor, coordinator = build()
    waiters = 12
    results = []

    def one_fetch():
        outcome = yield from coordinator.fetch(b"sor-003")
        results.append(outcome)

    procs = [cell.sim.process(one_fetch()) for _ in range(waiters)]
    cell.sim.run(until=cell.sim.all_of(procs))
    assert sor.reads == 1  # one leader; everyone else parked on it
    assert coordinator.stats["coalesced"] == waiters - 1
    assert all(outcome == ("hit", b"durable-3") for outcome in results)
    cell.close()


def test_coalesce_disabled_stampedes():
    cell, sor, coordinator = build(policy=MissPolicy(coalesce=False))
    procs = [cell.sim.process(coordinator.fetch(b"sor-001"))
             for _ in range(6)]
    cell.sim.run(until=cell.sim.all_of(procs))
    assert sor.reads == 6
    assert coordinator.stats["coalesced"] == 0
    cell.close()


# -- negative caching --------------------------------------------------------

def test_negative_cache_absorbs_repeat_misses_until_ttl():
    cell, sor, coordinator = build(policy=MissPolicy(negative_ttl=0.2))

    def app():
        first = yield from coordinator.fetch(b"absent")
        second = yield from coordinator.fetch(b"absent")
        yield cell.sim.timeout(0.3)  # past the TTL
        third = yield from coordinator.fetch(b"absent")
        return first, second, third

    first, second, third = run(cell, app())
    assert first == ("miss", None)       # real SoR miss
    assert second == ("negative", None)  # remembered absent, no SoR read
    assert third == ("miss", None)       # TTL expired: re-asked the SoR
    assert sor.reads == 2
    assert coordinator.stats["negative_hits"] == 1
    cell.close()


def test_negative_cache_cleared_by_write():
    cell, sor, coordinator = build()

    def app():
        yield from coordinator.fetch(b"soon")        # miss -> negative
        coordinator.note_write(b"soon", b"fresh")    # write clears it
        return (yield from coordinator.fetch(b"soon"))

    outcome = run(cell, app())
    assert outcome == ("hit", b"fresh")  # served from the dirty buffer
    assert coordinator.stats["buffered_serves"] == 1
    cell.close()


# -- write-behind ------------------------------------------------------------

def test_write_behind_flushes_in_fifo_order():
    cell, sor, coordinator = build()
    keys = [b"wb-%02d" % i for i in range(5)]
    for key in keys:
        assert coordinator.note_write(key, b"v:" + key)

    def app():
        yield from coordinator.flush()

    run(cell, app())
    assert sor.write_log == keys  # first-dirtied flushes first
    assert coordinator.dirty_depth == 0
    cell.close()


def test_write_behind_buffer_bound_forces_sync_fallback():
    cell, sor, coordinator = build(policy=MissPolicy(dirty_buffer_max=2))
    assert coordinator.note_write(b"a", b"1")
    assert coordinator.note_write(b"b", b"2")
    assert not coordinator.note_write(b"c", b"3")  # over the bound
    assert coordinator.stats["buffer_overflows"] == 1

    def app():
        yield from coordinator.write_through(b"c", b"3")

    run(cell, app())
    assert coordinator.stats["sync_writes"] == 1
    assert b"c" in sor.write_log
    cell.close()


def test_dropped_write_through_is_counted_in_stats_and_registry():
    """A full buffer degrades to write-through; when that synchronous
    write cannot land either, the drop is one ``writebacks_dropped`` in
    ``stats`` and one ``result="dropped"`` writeback on the registry."""
    cell, sor, coordinator = build(policy=MissPolicy(
        dirty_buffer_max=1, fetch_deadline=2e-3, fetch_retries=1))
    client = cell.connect_client()

    def app():
        yield from client.set(b"buffered", b"1")
        sor.host.crash()
        return (yield from client.set(b"overflow", b"2"))

    assert run(cell, app()).status is SetStatus.APPLIED
    assert coordinator.stats["buffer_overflows"] == 1
    assert coordinator.stats["writebacks_dropped"] == 1 == \
        cell.metrics.total("cliquemap_sor_writebacks_total",
                           result="dropped")
    client.close()


def test_write_behind_update_keeps_first_dirty_position():
    cell, sor, coordinator = build()
    coordinator.note_write(b"x", b"1")
    coordinator.note_write(b"y", b"2")
    coordinator.note_write(b"x", b"3")  # re-dirty: keeps front position

    def app():
        yield from coordinator.flush()

    run(cell, app())
    assert sor.write_log == [b"x", b"y"]
    cell.close()


# -- client surface ----------------------------------------------------------

def test_get_source_field_cache_sor_negative():
    cell, sor, _coordinator = build()
    client = cell.connect_client()

    def app():
        filled = yield from client.get(b"sor-002")    # miss -> SoR fetch
        cached = yield from client.get(b"sor-002")    # now in the cache
        absent = yield from client.get(b"nope")       # SoR authoritative miss
        remembered = yield from client.get(b"nope")   # negative cache
        return filled, cached, absent, remembered

    filled, cached, absent, remembered = run(cell, app())
    assert (filled.status, filled.source) == (GetStatus.HIT, "sor")
    assert filled.value == b"durable-2"
    assert (cached.status, cached.source) == (GetStatus.HIT, "cache")
    assert (absent.status, absent.source) == (GetStatus.MISS, "sor")
    assert (remembered.status, remembered.source) == (GetStatus.MISS,
                                                      "negative")
    client.close()
    cell.close()


def test_get_multi_reads_through_like_a_singleton():
    """Each batch key the cache tier misses goes through the miss
    pipeline and reports what a singleton GET would: the SoR's value,
    the tier that said "absent", or why the fetch did not happen."""
    cell, sor, coordinator = build(policy=MissPolicy(
        backfill_budget=1.0, backfill_fill_rate=0.0, fetch_deadline=2e-3,
        fetch_retries=1))
    client = cell.connect_client()
    # A foreground fetch is never shed; class one key's fetch as
    # backfill against a dry budget to drive that outcome.
    assert coordinator.backfill_budget.try_spend()
    fetch = coordinator.fetch
    coordinator.fetch = lambda key: fetch(
        key, klass="backfill" if key == b"sor-005" else "foreground")

    def booked(before):
        return {k: client.stats[k] - before[k]
                for k in ("gets", "hits", "misses", "sor_hits")}

    def app():
        yield from client.set(b"cached", b"in-cache")
        yield from client.get(b"nope")  # SoR miss, remembered
        before = dict(client.stats)
        batch = yield from client.get_multi(
            [b"cached", b"sor-001", b"nope", b"other", b"sor-005"])
        batch_booked = booked(before)
        before = dict(client.stats)
        single = yield from client.get(b"sor-002")
        single_booked = booked(before)
        sor.host.crash()
        failed = yield from client.get_multi([b"sor-006", b"sor-007"])
        return batch, batch_booked, single, single_booked, failed

    batch, batch_booked, single, single_booked, failed = run(cell, app())
    assert [(r.status, r.source, r.error, r.value) for r in batch] == [
        (GetStatus.HIT, "cache", None, b"in-cache"),
        (GetStatus.HIT, "sor", None, b"durable-1"),
        (GetStatus.MISS, "negative", None, None),
        (GetStatus.MISS, "sor", None, None),
        (GetStatus.MISS, "sor", "sor-backfill-shed", None)]
    assert [(r.status, r.source, r.error) for r in failed] == \
        [(GetStatus.MISS, "sor", "sor-fetch-failed")] * 2
    # One booking rule: a batch key the SoR serves is booked a hit,
    # once, exactly as the singleton below books it.
    assert batch_booked == {"gets": 5, "hits": 2, "misses": 3,
                            "sor_hits": 1}
    assert (single.status, single.source) == (GetStatus.HIT, "sor")
    assert single_booked == {"gets": 1, "hits": 1, "misses": 0,
                             "sor_hits": 1}
    client.close()
    cell.close()


def test_set_rides_write_behind_to_sor():
    cell, sor, coordinator = build()
    client = cell.connect_client()

    def app():
        yield from client.set(b"fresh", b"value")
        yield from coordinator.flush()

    run(cell, app())
    assert sor.write_log == [b"fresh"]
    assert coordinator.stats["writebacks"] == 1
    client.close()
    cell.close()


def test_backfill_class_sheds_when_budget_dry():
    cell, sor, coordinator = build(policy=MissPolicy(
        backfill_budget=2.0, backfill_fill_rate=0.0))

    def app():
        outcomes = []
        for i in range(5):
            outcome = yield from coordinator.fetch(b"sor-%03d" % i,
                                                   klass="backfill")
            outcomes.append(outcome[0])
        return outcomes

    outcomes = run(cell, app())
    assert outcomes.count("shed") == 3  # budget of 2, no refill
    assert coordinator.stats["shed"] == 3
    assert sor.reads == 2
    cell.close()
