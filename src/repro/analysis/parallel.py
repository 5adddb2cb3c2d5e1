"""Sharded-federation harness: run arms, prove equivalence, profile.

The honesty methodology from the PR 4 kernel rewrite (digest a run's
op-by-op results and assert the optimized path reproduces them exactly)
applied across process boundaries: a federation sharded one-zone-per-
worker must be *bit-identical* — per-zone op digests, event counts, and
metric-registry totals — to the same-seed run of the same shards
executed sequentially in one process. The coordinator's window
decisions depend only on deterministic shard state, so any divergence
(pickling drift, cross-process RNG skew, message reordering) shows up as
a digest mismatch, not a silent wrong answer.

Two equivalence levels, both **exact**:

* :func:`compare_parallel` — parallel workers vs sequential one-process
  execution of the same federation (this is the claim the speedup
  numbers stand on);
* a 1-zone coordinator run vs the same
  :class:`~repro.core.ZoneShard` built in-process and run by one
  ``sim.run`` — the window protocol adds no event and moves no clock
  (tested in tests/integration/test_parallel.py).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from ..core.cell import CellSpec
from ..net import FabricConfig
from ..sim import ShardCoordinator, ShardRunReport
from ..core.parallelfed import ZoneWorkloadSpec, shard_builders


def run_federation_arm(zones: Sequence[str],
                       cell_spec: Optional[CellSpec] = None,
                       fabric_config: Optional[FabricConfig] = None,
                       workload: Optional[ZoneWorkloadSpec] = None,
                       duration: float = 0.5,
                       mode: str = "sequential",
                       profile_dir: Optional[str] = None) -> ShardRunReport:
    """Run one federation: ``mode`` is ``"parallel"`` (one worker
    process per zone) or ``"sequential"`` (every zone in this process).
    Returns the coordinator's :class:`~repro.sim.ShardRunReport`."""
    zones = tuple(zones)
    cell_spec = cell_spec or CellSpec()
    fabric_config = fabric_config or FabricConfig()
    workload = workload or ZoneWorkloadSpec()
    if mode not in ("sequential", "parallel"):
        raise ValueError(f"unknown federation arm mode {mode!r}")
    coordinator = ShardCoordinator(
        shard_builders(zones, cell_spec, fabric_config, workload,
                       duration),
        lookahead=fabric_config.inter_zone_delay,
        run_for=duration, profile_dir=profile_dir)
    return coordinator.run(parallel=(mode == "parallel"))


def digest_mismatches(a: ShardRunReport,
                      b: ShardRunReport) -> List[str]:
    """Every way two sharded runs differ (empty == bit-identical)."""
    problems = []
    if len(a.digests) != len(b.digests):
        return [f"shard count differs: {len(a.digests)} vs "
                f"{len(b.digests)}"]
    for left, right in zip(a.digests, b.digests):
        zone = left.get("zone", "?")
        for field in ("zone", "ops", "ops_digest", "fed_stats",
                      "population", "metrics", "events", "final_now"):
            if left.get(field) != right.get(field):
                problems.append(
                    f"zone {zone}: {field} differs: "
                    f"{left.get(field)!r} vs {right.get(field)!r}")
    return problems


def assert_digest_equivalent(a: ShardRunReport, b: ShardRunReport) -> None:
    problems = digest_mismatches(a, b)
    if problems:
        raise AssertionError(
            "sharded runs are not digest-equivalent:\n  " +
            "\n  ".join(problems))


def compare_parallel(zones: Sequence[str],
                     cell_spec: Optional[CellSpec] = None,
                     fabric_config: Optional[FabricConfig] = None,
                     workload: Optional[ZoneWorkloadSpec] = None,
                     duration: float = 0.5,
                     profile_dir: Optional[str] = None) -> Dict[str, object]:
    """Sequential vs parallel execution of one sharded federation.

    Runs both arms on the same specs/seed, asserts bit-identical
    digests, and returns the comparison record (the shape
    benchmarks/bench_parallel.py persists). Speedup is reported two
    ways: ``speedup_wall`` (honest only with >= one core per worker
    plus one for the coordinator) and ``speedup_critical_path`` —
    sequential CPU over the parallel arm's critical path
    (sum over windows of the slowest shard's in-window CPU, plus
    coordinator CPU), which measures what the sharding *makes possible*
    independent of how many cores this machine happens to have.
    """
    sequential = run_federation_arm(zones, cell_spec, fabric_config,
                                    workload, duration, "sequential")
    parallel = run_federation_arm(zones, cell_spec, fabric_config,
                                  workload, duration, "parallel",
                                  profile_dir=profile_dir)
    assert_digest_equivalent(sequential, parallel)
    record = {
        "zones": list(zones),
        "duration": duration,
        "digest_equivalent": True,
        "events": parallel.events,
        "windows": parallel.windows,
        "messages_routed": parallel.messages_routed,
        "leaked_children": parallel.leaked_children,
        "sequential": _arm_record(sequential),
        "parallel": _arm_record(parallel),
        "cpu_count": os.cpu_count(),
    }
    if parallel.wall_seconds > 0:
        record["speedup_wall"] = (sequential.wall_seconds /
                                  parallel.wall_seconds)
    if parallel.critical_path_seconds > 0:
        record["speedup_critical_path"] = (
            sequential.critical_path_seconds /
            parallel.critical_path_seconds)
    return record


def _arm_record(report: ShardRunReport) -> Dict[str, object]:
    return {
        "mode": report.mode,
        "events": report.events,
        "wall_seconds": report.wall_seconds,
        "coordinator_cpu_seconds": report.coordinator_cpu_seconds,
        "shard_cpu_seconds": report.shard_cpu_seconds,
        "critical_path_seconds": report.critical_path_seconds,
        "events_per_critical_sec": report.events_per_critical_sec,
        "ops_digests": {d["zone"]: d["ops_digest"]
                        for d in report.digests},
    }


def profile_parallel_hotspots(zones: Sequence[str] = ("dc-a", "dc-b",
                                                      "dc-c", "dc-d"),
                              cell_spec: Optional[CellSpec] = None,
                              workload: Optional[ZoneWorkloadSpec] = None,
                              duration: float = 0.2,
                              top: int = 25, sort: str = "cumulative",
                              stream=None) -> None:
    """Profile a parallel sharded run and print ONE aggregated top-N.

    Each worker dumps its own cProfile stats (per-shard ``.prof``
    files); those are merged with ``pstats.Stats.add`` so hotspot
    analysis reads the same whether the run was sharded or not.
    """
    import pstats
    import sys
    import tempfile
    stream = stream or sys.stdout
    with tempfile.TemporaryDirectory(prefix="cliquemap-prof-") as prof_dir:
        report = run_federation_arm(
            zones, cell_spec=cell_spec, workload=workload,
            duration=duration, mode="parallel", profile_dir=prof_dir)
        prof_files = sorted(
            os.path.join(prof_dir, name)
            for name in os.listdir(prof_dir) if name.endswith(".prof"))
        if not prof_files:
            raise RuntimeError("no per-shard profiles were written")
        stats = pstats.Stats(prof_files[0], stream=stream)
        for path in prof_files[1:]:
            stats.add(path)
        print(f"aggregated {len(prof_files)} shard profiles | "
              f"zones={','.join(zones)} events={report.events} "
              f"windows={report.windows} "
              f"messages={report.messages_routed}", file=stream)
        stats.strip_dirs().sort_stats(sort).print_stats(top)


__all__ = ["run_federation_arm", "compare_parallel",
           "digest_mismatches", "assert_digest_equivalent",
           "profile_parallel_hotspots"]
