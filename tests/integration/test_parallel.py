"""Determinism + equivalence of the sharded parallel federation.

Three claims (see ARCHITECTURE §13):

1. a parallel (multiprocess) run is bit-identical to the sequential
   (one-process) run of the same shards, same seed;
2. same-seed parallel runs are bit-identical to each other;
3. a 1-zone coordinator run is bit-identical to the same shard built
   in-process and run by one ``sim.run`` — the window protocol adds no
   event and moves no clock.
"""

import multiprocessing

import pytest

from repro.analysis import (compare_parallel, digest_mismatches,
                            run_federation_arm)
from repro.core import CellSpec, ZoneShard, ZoneShardSpec, ZoneWorkloadSpec

ZONES4 = ("dc-a", "dc-b", "dc-c", "dc-d")

SMALL_CELL = dict(num_shards=3)


def small_workload(**overrides):
    base = dict(clients=2, shared_keys=16, private_keys=4,
                think_mean=300e-6)
    base.update(overrides)
    return ZoneWorkloadSpec(**base)


def test_same_seed_parallel_runs_bit_identical():
    """Claim 2: rerunning the 4-shard parallel federation on the same
    seed reproduces every digest bit-for-bit, and in it every preloaded
    GET hits, locally or by remote fallback, beside fan-out writes."""
    workload = small_workload(remote_every=4, fanout_every=8)
    runs = [run_federation_arm(ZONES4, cell_spec=CellSpec(**SMALL_CELL),
                               workload=workload, duration=0.1,
                               mode="parallel") for _ in range(2)]
    assert digest_mismatches(runs[0], runs[1]) == []
    assert runs[0].events == runs[1].events
    assert runs[0].windows == runs[1].windows
    for digest in runs[0].digests:
        stats = digest["fed_stats"]
        assert stats["misses"] == 0, digest["zone"]
        assert stats["remote_hits"] > 0, digest["zone"]
        assert stats["local_hits"] > 0, digest["zone"]
    assert runs[0].messages_routed > 0


def test_parallel_matches_sequential_execution():
    """Claim 1: worker processes change nothing but the wall clock.
    (compare_parallel asserts digest equivalence internally.)"""
    record = compare_parallel(ZONES4, cell_spec=CellSpec(**SMALL_CELL),
                              workload=small_workload(), duration=0.1)
    assert record["digest_equivalent"]
    assert record["events"] > 0
    assert record["messages_routed"] > 0
    assert not record["leaked_children"]


def test_one_zone_coordinator_run_matches_one_in_process_run():
    """Claim 3: a one-zone run through the coordinator's worker equals
    the same shard built here and run by a single ``sim.run`` — op
    digests, event counts, metric totals, and the final clock."""
    workload = small_workload(population_clients=20,
                              population_rate=100.0,
                              population_drivers=2, population_keys=32)
    report = run_federation_arm(("dc-a",), cell_spec=CellSpec(**SMALL_CELL),
                                workload=workload, duration=0.1,
                                mode="parallel")
    shard = ZoneShard(ZoneShardSpec(zone="dc-a", zones=("dc-a",),
                                    cell_spec=CellSpec(**SMALL_CELL),
                                    workload=workload, duration=0.1))
    shard.build()
    start = shard.sim.now
    shard.start()
    shard.sim.run(until=start + 0.1)
    reference = shard.digest()
    (zone,) = report.digests
    for field in ("ops", "ops_digest", "fed_stats", "population",
                  "metrics"):
        assert zone[field] == reference[field], field
    assert zone["population"]["gets"] > 0
    assert zone["events"] == shard.sim._seq
    assert zone["final_now"] == shard.sim.now == report.horizon


def test_no_worker_processes_leak():
    run_federation_arm(ZONES4, cell_spec=CellSpec(**SMALL_CELL),
                       workload=small_workload(), duration=0.05,
                       mode="parallel")
    assert multiprocessing.active_children() == []


def test_lookahead_violation_is_loud():
    """A lookahead larger than the true minimum WAN latency would let a
    message arrive in a shard's past; the kernel's inject() guard must
    turn that into an error, not silent time travel."""
    from repro.core.parallelfed import shard_builders
    from repro.net import FabricConfig
    from repro.sim import ShardCoordinator, SimulationError
    builders = shard_builders(("dc-a", "dc-b"), CellSpec(**SMALL_CELL),
                              FabricConfig(), small_workload(
                                  remote_every=2, think_mean=100e-6),
                              0.2)
    coordinator = ShardCoordinator(
        builders, lookahead=10 * FabricConfig().inter_zone_delay,
        run_for=0.2)
    with pytest.raises(SimulationError):
        coordinator.run(parallel=False)
