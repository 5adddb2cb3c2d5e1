"""Batched multi-key ops end-to-end: correctness, isolation, chaos.

The wire-level batched path (§7.1) must behave like a loop of singleton
ops from the caller's point of view — same hits, same values, same
misses, results aligned with the request — while issuing one coalesced
index fetch per (backend, batch). These tests drive ``get_multi`` /
``set_multi`` on a real cell and assert:

* alignment and correctness on the all-fast-path batch;
* per-key failure isolation — a poisoned key degrades to an ERROR
  result for that key only, never aborting its siblings (the old
  ``AllOf`` fan-out aborted the whole batch on the first child failure);
* composition with the gray-failure machinery — a batch whose keys land
  on a backend behind a fully lossy link still returns correct results
  for every key, via quorum over the surviving replicas;
* the one retry engine ends get / set / erase the same way: no hot-spin
  at the deadline, one shed on a dry budget, ``max_retries`` attempts.
"""

import pytest

from repro.core import (Cell, CellSpec, ClientConfig, GetStatus,
                        GetStrategy, ReplicationMode, SetStatus)
from repro.net import LinkFault
from repro.transport import RmaError

NUM_KEYS = 32


def build(num_shards=6):
    return Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=num_shards,
                         transport="pony"))


def run(cell, gen):
    return cell.sim.run(until=cell.sim.process(gen))


def seed(cell, client, keys):
    def app():
        for i, key in enumerate(keys):
            result = yield from client.set(key, b"value-%d" % i)
            assert result.status is SetStatus.APPLIED, (key, result)
    run(cell, app())


def make_keys(n=NUM_KEYS):
    return [b"multi-%05d" % i for i in range(n)]


def test_batched_get_multi_results_align_with_keys():
    cell = build()
    client = cell.connect_client(strategy=GetStrategy.TWO_R)
    keys = make_keys()
    seed(cell, client, keys)

    asked = keys[:24] + [b"never-set-%d" % i for i in range(8)]
    results = run(cell, client.get_multi(asked))
    assert len(results) == len(asked)
    for i, result in enumerate(results[:24]):
        assert result.status is GetStatus.HIT, (i, result)
        assert result.value == b"value-%d" % i
    for result in results[24:]:
        assert result.status is GetStatus.MISS, result

    # The index phase went over the coalesced wire op, not singletons.
    assert cell.transport.counters.batched_reads >= 1
    assert cell.transport.counters.batched_keys >= 24
    assert cell.metrics.total("cliquemap_client_batch_keys_total") >= 24
    assert cell.metrics.total("cliquemap_batched_keys_total") >= 24
    cell.close()


def test_rpc_get_multi_equals_singleton_gets():
    """An RPC-strategy batch is a fan-out of singleton GETs: over hits,
    misses and a crashed replica its results align with ``keys`` and
    equal what one GET per key returns."""
    cell = build()
    keys = make_keys(12)
    seed(cell, cell.connect_client(strategy=GetStrategy.TWO_R), keys)
    cell.serving_backends()[0].crash()
    client = cell.connect_client(
        strategy=GetStrategy.RPC,
        client_config=ClientConfig(default_deadline=50e-3))
    asked = keys[:8] + [b"never-set-%d" % i for i in range(4)]

    batch = run(cell, client.get_multi(asked))
    singles = [run(cell, client.get(key)) for key in asked]
    assert [(r.status, r.value) for r in batch] == \
        [(r.status, r.value) for r in singles] == \
        [(GetStatus.HIT, b"value-%d" % i) for i in range(8)] + \
        [(GetStatus.MISS, None)] * 4
    cell.close()


def test_batched_get_multi_uses_fewer_fabric_transfers():
    """One coalesced index fetch per (backend, batch): the number of
    request transfers must scale with the replica count, not the key
    count."""
    cell = build()
    client = cell.connect_client(strategy=GetStrategy.TWO_R)
    keys = make_keys()
    seed(cell, client, keys)

    before = cell.metrics.total("cliquemap_fabric_coalesced_total")
    results = run(cell, client.get_multi(keys))
    assert all(r.status is GetStatus.HIT for r in results)
    coalesced = cell.metrics.total("cliquemap_fabric_coalesced_total") - before
    # 3 replicas x (request + response) = 6 coalesced transfers for the
    # whole 32-key index phase.
    assert coalesced <= 2 * 3 * len(cell.serving_backends())
    assert coalesced >= 2
    cell.close()


def test_one_poisoned_key_does_not_abort_siblings():
    """Per-key isolation through the fallback path: every key is forced
    to fall back to a singleton GET, and one of those singletons blows
    up with an unexpected exception. Its siblings must still HIT; only
    the poisoned key reports an ERROR result."""
    cell = build()
    client = cell.connect_client(
        strategy=GetStrategy.TWO_R,
        client_config=ClientConfig(default_deadline=50e-3))
    keys = make_keys(8)
    seed(cell, client, keys)
    poison = keys[3]

    # Force the batched index phase to fail wholesale so every key takes
    # the singleton-fallback route.
    def broken_read_multi(client_host, server_name, requests, trace=None):
        raise RmaError("injected batch failure")
        yield  # pragma: no cover - make this a generator

    cell.transport.read_multi = broken_read_multi

    real_get = client.get

    def poisoned_get(key, deadline=None):
        if key == poison:
            raise RuntimeError("poisoned key")
            yield  # pragma: no cover - make this a generator
        return (yield from real_get(key, deadline))

    client.get = poisoned_get
    results = run(cell, client.get_multi(keys))
    assert len(results) == len(keys)
    for i, result in enumerate(results):
        if keys[i] == poison:
            assert result.status is GetStatus.ERROR, result
            assert "RuntimeError" in (result.error or "")
        else:
            assert result.status is GetStatus.HIT, (i, result)
            assert result.value == b"value-%d" % i
    assert cell.metrics.total("cliquemap_batch_fallback_total") >= len(keys)
    cell.close()


def test_batch_with_lossy_backend_still_serves_every_key():
    """The acceptance chaos case: one replica behind a link that eats
    every packet. The coalesced fetch to that backend fails as a unit,
    but per-key quorum over the two surviving replicas still settles
    every key — no sibling is aborted, no wrong value is returned."""
    cell = build()
    client = cell.connect_client(
        strategy=GetStrategy.TWO_R,
        client_config=ClientConfig(max_retries=8, default_deadline=50e-3))
    keys = make_keys()
    seed(cell, client, keys)

    victim = cell.serving_backends()[0]
    cell.fabric.degrade(client.host, victim.host,
                        LinkFault(loss_probability=1.0))

    results = run(cell, client.get_multi(keys))
    assert len(results) == len(keys)
    for i, result in enumerate(results):
        assert result.status is GetStatus.HIT, (i, result)
        assert result.value == b"value-%d" % i
    assert cell.metrics.total("cliquemap_fabric_dropped_total",
                              reason="loss") > 0
    cell.close()


def test_batch_composes_with_quarantine():
    """Once the scoreboard quarantines the lossy backend, subsequent
    batches must skip it outright (no wasted coalesced fetch into a
    black hole) and keep serving from the healthy cohort."""
    cell = build()
    client = cell.connect_client(
        strategy=GetStrategy.TWO_R,
        client_config=ClientConfig(max_retries=8, default_deadline=50e-3))
    keys = make_keys()
    seed(cell, client, keys)

    victim = cell.serving_backends()[0]
    cell.fabric.degrade(client.host, victim.host,
                        LinkFault(loss_probability=1.0))

    def batches():
        for _ in range(6):
            results = yield from client.get_multi(keys)
            for i, result in enumerate(results):
                assert result.status is GetStatus.HIT, (i, result)
                assert result.value == b"value-%d" % i
            # Give the reconnect loop time to keep probing the victim;
            # its failed handshakes feed the scoreboard between batches.
            yield cell.sim.timeout(5e-3)

    run(cell, batches())
    health = client.backend_health(victim.task_name)
    assert health is not None
    assert health.quarantines > 0
    cell.close()


def test_set_multi_applies_all_and_reads_back():
    cell = build()
    client = cell.connect_client(strategy=GetStrategy.TWO_R)
    keys = make_keys(16)
    items = [(key, b"batch-%d" % i) for i, key in enumerate(keys)]

    results = run(cell, client.set_multi(items))
    assert len(results) == len(items)
    assert all(r.status is SetStatus.APPLIED for r in results)

    reads = run(cell, client.get_multi(keys))
    for i, result in enumerate(reads):
        assert result.status is GetStatus.HIT, (i, result)
        assert result.value == b"batch-%d" % i
    assert cell.metrics.total("cliquemap_client_batch_keys_total",
                              op="set") >= 16
    cell.close()


def test_set_multi_with_partitioned_backend_still_applies():
    """One unreachable replica: MultiSet to it fails as a unit, but the
    per-key quorum (2 of 3) still applies every mutation."""
    cell = build()
    client = cell.connect_client(
        strategy=GetStrategy.TWO_R,
        client_config=ClientConfig(max_retries=8, default_deadline=50e-3))
    victim = cell.serving_backends()[0]
    cell.fabric.partition(client.host, victim.host)

    keys = make_keys(12)
    items = [(key, b"part-%d" % i) for i, key in enumerate(keys)]
    results = run(cell, client.set_multi(items))
    assert all(r.status is SetStatus.APPLIED for r in results), results

    reads = run(cell, client.get_multi(keys))
    for i, result in enumerate(reads):
        assert result.status is GetStatus.HIT, (i, result)
        assert result.value == b"part-%d" % i
    cell.close()


def test_batched_keys_reach_the_flight_recorder():
    """Every key a batch settles is one ``op`` flight event under the
    batch's trace id, like a singleton op; a disabled recorder records
    nothing and perturbs nothing."""
    observed = {}
    for recorder in (True, False):
        cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=6,
                             transport="pony", flight_recorder=recorder))
        client = cell.connect_client(strategy=GetStrategy.TWO_R)
        keys = make_keys(8)
        writes = run(cell, client.set_multi([(key, b"v") for key in keys]))
        reads = run(cell, client.get_multi(keys))
        assert all(r.hit for r in reads), reads
        observed[recorder] = [(r.status, r.latency) for r in writes + reads]
        ops = [(e.fields["op"], e.fields["status"], e.fields["trace_id"])
               for e in cell.flight.events(kind="op")]
        if recorder:
            set_id, get_id = (batch[0].trace.root.trace_id
                              for batch in (writes, reads))
            assert ops == [("set", "applied", set_id)] * 8 + \
                [("get", "hit", get_id)] * 8
        else:
            assert ops == [] and cell.flight.recorded == 0
        cell.close()
    assert observed[True] == observed[False]


# ---------------------------------------------------------------------------
# The op engine's terminal semantics, one table for get / set / erase
# ---------------------------------------------------------------------------

ENGINE_OPS = {
    "get": lambda client: client.get(b"spin-key"),
    "set": lambda client: client.set(b"spin-key", b"v"),
    "erase": lambda client: client.erase(b"spin-key"),
}
per_engine_op = pytest.mark.parametrize("op", sorted(ENGINE_OPS))


def unreachable_cohort(**client_config):
    """A client whose key is seeded, then every replica partitioned away."""
    cell = build(num_shards=3)
    client = cell.connect_client(
        client_config=ClientConfig(**client_config))
    seed(cell, client, [b"spin-key"])
    for backend in cell.serving_backends():
        cell.fabric.partition(client.host, backend.host)
    return cell, client


@per_engine_op
def test_retry_loop_does_not_hot_spin_at_deadline(op):
    """Regression for the deadline hot-spin: with a large backoff and a
    short deadline, the op must stop once the next sleep would cross the
    deadline — not burn hundreds of same-instant attempts."""
    cell, client = unreachable_cohort(
        max_retries=1000, default_deadline=5e-3,
        retry_backoff=2e-3, retry_backoff_cap=2e-3,
        retry_budget_capacity=0.0)      # budget disabled: only the fix caps
    started = cell.sim.now
    result = run(cell, ENGINE_OPS[op](client))
    assert not result.ok
    # A 5ms deadline with a 2ms floor backoff admits three attempts; the
    # hot-spin bug produced hundreds. Every failed attempt is a counted
    # retry, whichever op ran it.
    assert result.attempts == client.stats["retries"] == 3, client.stats
    # ... and the op gave up instead of sleeping across its deadline.
    assert cell.sim.now - started < 5e-3
    cell.close()


@per_engine_op
def test_dry_retry_budget_sheds_after_one_attempt(op):
    cell, client = unreachable_cohort(retry_budget_capacity=1.0,
                                      retry_budget_fill_rate=0.0)
    assert client.retry_budget.try_spend()      # drain the only token
    result = run(cell, ENGINE_OPS[op](client))
    assert not result.ok
    assert result.error == "budget-exhausted"
    assert result.attempts == 1
    assert client.stats["retries"] == 1
    assert client.stats["retries_shed"] == 1
    cell.close()


@per_engine_op
def test_max_retries_bounds_attempts_on_a_dead_cohort(op):
    cell, client = unreachable_cohort(
        max_retries=4, default_deadline=1.0, retry_backoff=0.0,
        retry_backoff_cap=0.0, retry_budget_capacity=0.0)
    result = run(cell, ENGINE_OPS[op](client))
    assert not result.ok
    assert result.attempts == client.stats["retries"] == 4, client.stats
    assert client.stats["retries_shed"] == 0
    cell.close()
