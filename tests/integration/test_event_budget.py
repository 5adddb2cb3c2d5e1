"""Regression guards for the op path's scheduler-entry budget, for what
a mutation costs the host in Python calls, and for behaviour
preservation: deterministic counts and digests, not timings."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

from repro.core import Cell, CellSpec, GetStatus, ReplicationMode
from repro.sim import core as sim_core

ROOT = Path(__file__).resolve().parents[2]


def test_one_2xr_get_on_pony_stays_within_its_event_budget():
    """An untraced 2xR GET is four Pony reads of nine entries each plus
    ~10 for process starts/exits and vote collection: 46 today, 74 before
    ``Resource.hold``. One zero-work hop per read creeping back costs
    four, so the bound fails on a regression and not on noise (a
    background tick landing inside a GET adds one or two, hence the min
    over several GETs)."""
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=6,
                         transport="pony"))
    client = cell.connect_client(strategy="2xr")
    sim = cell.sim
    costs = []

    def app():
        result = yield from client.set(b"key", b"value")
        assert result.ok
        for _ in range(4):      # warm: engine monitors, connections
            yield from client.get(b"key")
        for _ in range(8):
            before = sim._seq
            got = yield from client.get(b"key")
            assert got.status is GetStatus.HIT and got.attempts == 1
            costs.append(sim._seq - before)

    sim.run(until=sim.process(app()))
    cell.close()
    assert min(costs) <= 48, costs


def test_one_batched_get_multi_fans_in_linearly(monkeypatch):
    """A 40-key ``get_multi`` on a 120-host 1RMA cell is 78 coalesced
    index legs plus 40 data legs. Each leg reports to the batch through
    one callback (``FanIn``): 119 child landings today, 3,902 when every
    landing rebuilt an ``AnyOf`` over all the legs still in flight. The
    scheduler-entry budget beside it is the batched counterpart of the
    2xR GET's: 8 keys cost 406 entries (50.75 a key), 40 keys 1,652."""
    landings = []
    for condition in (sim_core.AnyOf, sim_core.FanIn):
        wrapped = condition._child_done

        def counted(self, *args, _wrapped=wrapped):
            landings.append(type(self).__name__)
            return _wrapped(self, *args)

        monkeypatch.setattr(condition, "_child_done", counted)

    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=120,
                         transport="1rma"))
    client = cell.connect_client(strategy="2xr")
    sim = cell.sim
    keys = [b"fan-%03d" % i for i in range(40)]
    entries = {}

    def app():
        for key in keys:
            result = yield from client.set(key, bytes(100))
            assert result.ok
        yield from client.get_multi(keys)       # warm: connections
        for batch in (40, 8):
            del landings[:]
            before = sim._seq
            got = yield from client.get_multi(keys[:batch])
            entries[batch] = sim._seq - before
            assert all(r.status is GetStatus.HIT and r.attempts == 1
                       for r in got)
            # At most three index legs and one data leg per key.
            assert len(landings) <= 4 * batch, (batch, len(landings))

    sim.run(until=sim.process(app()))
    cell.close()
    assert entries[8] <= 410 and entries[40] <= 1670, entries


def _host_calls(sim, op):
    """Python ``call`` events, by what was called, while ``op`` runs."""
    counts = Counter()

    def profiler(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename.endswith("repro/core/index.py"):
            counts["core/index.py"] += 1
            if code.co_name == "read_entry":
                counts["read_entry"] += 1
        elif code.co_filename.endswith("repro/rpc/wire.py"):
            if code.co_name == "wire_size":
                counts["wire_size"] += 1
            elif code.co_name == "estimate_size" and \
                    frame.f_back.f_code.co_name == "wire_size":
                counts["estimate_size walks"] += 1

    proc = sim.process(op())
    sys.setprofile(profiler)
    try:
        sim.run(until=proc)
    finally:
        sys.setprofile(None)
    return dict(counts)


def test_one_set_stays_within_its_host_call_budget():
    """What one client SET — three replica RPCs on R=3.2 — may cost the
    host in Python calls, beside what it costs the scheduler. Each limit
    is what the tree does plus one call; per replica the budget pays for:

    * ``core/index.py``, 11 calls: ``bucket_for``; one way-scan under the
      key lock (``find_way`` → ``bucket_offset`` → ``scan_ways``); then
      either the matching way materialised (``read_entry`` →
      ``entry_offset`` → ``bucket_offset`` → ``parse_entry``, an
      overwrite) or the free-way scan after the data write plus the
      resize check (``find_free_way`` → ``bucket_offset`` →
      ``scan_ways``, ``load_factor``, an insert); and ``write_entry`` →
      ``entry_offset`` → ``bucket_offset``, whose validity test reads
      one flag word in place.
    * ``read_entry``, 1 call on an overwrite (the way somebody wants as
      an object) and none on an insert.
    * ``wire_size``, 2 evaluations per RPC: the request where
      ``_call_inner`` builds it, the response where ``_serve`` does.
    * ``estimate_size``, 3 top-level walks per RPC: the request's
      metadata (its body is a modeled size), the response's payload and
      metadata.

    Before the backend read its index in place an insert was 273 calls
    into ``core/index.py`` with 48 ``read_entry``, 12 ``wire_size`` and
    18 walks."""
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=6,
                         transport="pony"))
    client = cell.connect_client(strategy="2xr")
    sim = cell.sim

    def set_key(key, value):
        def op():
            result = yield from client.set(key, value)
            assert result.ok
        return op

    for generation in range(3):        # warm: connections, the key's slab
        sim.run(until=sim.process(set_key(b"key", b"value-%d" % generation)()))
    overwrite = _host_calls(sim, set_key(b"key", b"value-9"))
    insert = _host_calls(sim, set_key(b"fresh", b"value"))
    cell.close()
    assert overwrite["core/index.py"] <= 34, overwrite
    assert overwrite["read_entry"] <= 4, overwrite
    assert insert["core/index.py"] <= 34, insert
    assert insert.get("read_entry", 0) <= 1, insert
    for counts in (overwrite, insert):
        assert counts["wire_size"] <= 7, counts
        assert counts["estimate_size walks"] <= 10, counts


def test_scale_equivalence_slice_reproduces_the_frozen_digest():
    """The ``bench_scale`` equivalence slice (24 hosts, 2,000 ops, in
    this process under whatever hash seed pytest got) still produces the
    per-op outcome digest and final clock it did before the op path shed
    scheduler entries, and exactly the event count stamped beside them."""
    spec = importlib.util.spec_from_file_location(
        "bench_scale", ROOT / "benchmarks" / "bench_scale.py")
    bench_scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_scale)
    run = bench_scale.equivalence_slice()
    assert {key: run[key] for key in bench_scale.GOLDEN} == \
        bench_scale.GOLDEN
    assert run["ops"] == run["hits"] == bench_scale.EQUIV_OPS
