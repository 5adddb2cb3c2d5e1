"""Regression guards for the op path's scheduler-entry budget and for
behaviour preservation: deterministic counts and digests, not timings."""

import importlib.util
from pathlib import Path

from repro.core import Cell, CellSpec, GetStatus, ReplicationMode

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
