"""Nothing per-op is a reference cycle (docs/ARCHITECTURE.md §2, §14).

Every object an op allocates in the kernel (processes, lock grants, a
dead process's exception) and in the tracer (span trees) must be freed
by reference counting the moment the op lets go of it. A cycle waits
for the cyclic collector instead, and the collector's young-generation
collections then tax every op. Each shape below runs with the collector
off and ``DEBUG_SAVEALL`` on: whatever a collection then finds is what
reference counting failed to free. The drivers are acyclic themselves,
so every object of a ``repro`` type found is the simulator's own cycle.
"""

import gc
import json
import weakref
from collections import Counter

import pytest

from repro.analysis import perf_history
from repro.analysis.perf import gc_ledger
from repro.core import (BackendConfig, Cell, CellSpec, GetStatus,
                        ReplicationMode, SetStatus)
from repro.telemetry import Span


def _cyclic_repro_objects(sim, op):
    """Run ``op()`` to completion with the collector off; count, by type,
    the objects of ``repro`` types only a collection could free."""
    gc.collect()
    enabled, flags, kept = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.disable()
    try:
        sim.run(until=sim.process(op()))
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        gc.collect()
        return Counter(f"{type(obj).__module__}.{type(obj).__qualname__}"
                       for obj in gc.garbage[kept:]
                       if type(obj).__module__.startswith("repro."))
    finally:
        gc.set_debug(flags)
        del gc.garbage[kept:]
        if enabled:
            gc.enable()


def _preload(cell, client, keys, size):
    def load():
        for key in keys:
            result = yield from client.set(key, bytes(size))
            assert result.status is SetStatus.APPLIED, result
    cell.sim.run(until=cell.sim.process(load()))


def _gets(tracing):
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=6,
                         transport="pony", tracing=tracing))
    client = cell.connect_client(strategy="2xr")
    keys = [b"get-%03d" % i for i in range(40)]
    _preload(cell, client, keys, 100)

    def op():
        for _ in range(5):
            for key in keys:
                result = yield from client.get(key)
                assert result.status is GetStatus.HIT, result
    return cell, op, 5 * len(keys)


def _mutation_mix():
    """SET / CAS / ERASE over RPC on a cell whose data is ~2x its cache:
    every mutation takes a key lock, and SETs evict."""
    backend = BackendConfig(data_initial_bytes=64 * 1024,
                            data_virtual_limit=128 * 1024,
                            slab_bytes=32 * 1024)
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=6,
                         transport="pony", backend_config=backend,
                         tracing=False))
    client = cell.connect_client()
    keys = [b"mix-%03d" % i for i in range(400)]

    def op():
        for i, key in enumerate(keys):
            yield from client.set(key, bytes(1024))
            if i % 4 == 1:
                seen = yield from client.get(key)
                if seen.status is GetStatus.HIT:
                    yield from client.cas(key, bytes(1000), seen.version)
            elif i % 4 == 3:
                yield from client.erase(key)
    return cell, op, len(keys) * 3 // 2


def _get_multi_1rma():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=24,
                         transport="1rma", tracing=False))
    client = cell.connect_client(strategy="2xr")
    keys = [b"multi-%03d" % i for i in range(64)]
    _preload(cell, client, keys, 512)

    def op():
        for _ in range(3):
            for start in range(0, len(keys), 8):
                results = yield from client.get_multi(keys[start:start + 8])
                assert all(r.status is GetStatus.HIT for r in results)
    return cell, op, 3 * len(keys)


def _get_through_crash():
    """Two of six backends down: a key with one crashed replica reads
    through the other two; a key with two retries to its deadline,
    failing RPCs on the way."""
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=6,
                         transport="pony", tracing=False))
    client = cell.connect_client(strategy="2xr")
    keys = [b"crash-%03d" % i for i in range(30)]
    _preload(cell, client, keys, 100)
    cell.backend_by_task("backend-1").crash()
    cell.backend_by_task("backend-2").crash()
    outcomes = Counter()

    def op():
        for key in keys:
            result = yield from client.get(key)
            outcomes[result.status] += 1
        assert client.stats["retries"] and outcomes[GetStatus.HIT], outcomes
    return cell, op, len(keys)


SHAPES = {
    "untraced_2xr_gets": lambda: _gets(tracing=False),
    "traced_2xr_gets": lambda: _gets(tracing=True),
    "rpc_mutation_mix_evicting": _mutation_mix,
    "get_multi_8_on_1rma": _get_multi_1rma,
    "get_through_crashed_replicas": _get_through_crash,
}


@pytest.mark.parametrize("shape", SHAPES)
def test_no_per_op_object_is_cyclic(shape):
    cell, op, ops = SHAPES[shape]()
    found = _cyclic_repro_objects(cell.sim, op)
    if shape == "rpc_mutation_mix_evicting":
        assert sum(b.stats.evictions_capacity
                   for b in cell.backends.values()), "nothing was evicted"
    cell.close()
    per_op = {name: round(count / ops, 2) for name, count in found.items()}
    assert not found, f"cyclic per op over {ops} ops: {per_op}"


def test_dropping_a_finished_root_frees_every_span():
    """A traced GET's whole tree dies with its root, collector off."""
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=6,
                         transport="pony"))
    client = cell.connect_client(strategy="2xr")
    _preload(cell, client, [b"key"], 100)
    enabled = gc.isenabled()
    gc.disable()
    try:
        def op():
            return (yield from client.get(b"key"))
        root = cell.sim.run(until=cell.sim.process(op())).trace.root
        client.tracer.finished.clear()      # the tracer's retained history
        spans = [weakref.ref(span) for _depth, span in root.walk()]
        leaf = spans[-1]
        assert len(spans) > 5 and not leaf().children
        del root
        assert leaf() is None
        assert not [ref for ref in spans if ref() is not None]
    finally:
        if enabled:
            gc.enable()
    cell.close()


def test_a_hoisted_child_dies_with_its_new_parent():
    """Reparenting moves ownership, never adds a back edge: a child
    hoisted out of a closed phase, and a late child attached past it,
    both die at ``del root``."""
    now = [0.0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        root = Span("op", lambda: now[0])
        phase = root.child("phase")
        hoisted = phase.child("leg")
        now[0] = 1.0
        phase.finish()
        late = phase.child("late")
        assert hoisted.parent is root and late.parent is root
        leaf = weakref.ref(hoisted.child("leaf").finish())
        late.finish()
        root.finish()
        del phase, hoisted, late
        assert leaf() is not None and leaf().parent.parent is root
        del root
        assert leaf() is None
    finally:
        if enabled:
            gc.enable()


def test_gc_ledger_books_collections_by_generation(tmp_path):
    """The bench ledger's GC column: what ran inside the block, by
    generation, and nothing after it; ``perf history`` prints it with
    no bound."""
    with gc_ledger() as ledger:
        gc.collect(0)
        gc.collect()
    inside = list(ledger["gc_collections"])
    gc.collect()
    assert ledger["gc_collections"] == inside
    assert inside[0] >= 1 and inside[2] >= 1 and ledger["gc_seconds"] > 0
    (tmp_path / "BENCH_scale.json").write_text(json.dumps(
        {"benchmark": "scale", **ledger}))
    rows = {row["metric"]: row
            for row in perf_history(str(tmp_path))["rows"]}
    for metric in ledger:
        assert rows[metric]["bound"] is None and rows[metric]["ok"]
