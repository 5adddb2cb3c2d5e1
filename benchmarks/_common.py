"""Shared helpers for the figure-reproduction benchmarks.

Every ``bench_figXX`` module regenerates one table/figure from the
paper's evaluation: it builds the experiment's cell and workload, runs it
under ``benchmark.pedantic`` (one deterministic round — these are
simulations, not microbenchmarks), prints the figure's rows/series, and
asserts the paper's comparative *shape* (who wins, by roughly what
factor, where crossovers fall).

Run with::

    pytest benchmarks/ --benchmark-only -s

The experiment-harness primitives live in :mod:`repro.testing` so user
studies can reuse them; this module only adds the benchmark glue.
"""

from __future__ import annotations

from typing import Callable

# Re-exported for the bench modules.
from repro.testing import (cell_cpu_hosts, drive, key_with_primary_shard,
                           measure_gets, preload_keys, total_cpu)

__all__ = ["run_once", "drive", "preload_keys", "measure_gets",
           "key_with_primary_shard", "total_cpu", "cell_cpu_hosts",
           "RSS_MB_PER_HOST_CEILING", "check_build_cost"]

#: What a backend may cost the host before the first op: its index
#: stamps (0.23 MiB measured), not its populated arena (1.23 MiB when
#: arenas were zero-filled bytearrays).
RSS_MB_PER_HOST_CEILING = 0.5


def run_once(benchmark, fn: Callable):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def check_build_cost(run: dict) -> None:
    """Print what ``run``'s cell cost the host to exist; hold its RSS
    per backend host under the ceiling."""
    print(f"  build={run['build_seconds']:.2f}s "
          f"peak_rss={run['peak_rss_mb']:.0f}MiB "
          f"rss/host={run['rss_mb_per_host']:.3f}MiB "
          f"(ceiling {RSS_MB_PER_HOST_CEILING})")
    assert run["rss_mb_per_host"] <= RSS_MB_PER_HOST_CEILING, (
        f"a backend costs {run['rss_mb_per_host']:.2f} MiB of RSS to "
        f"exist, over the {RSS_MB_PER_HOST_CEILING} MiB ceiling")
