"""Population-model validation + the population-scale workload driver.

Two jobs, one honesty methodology (PR 4's digest template, adapted to a
statistical model):

* :func:`run_population_arm` drives one identically-seeded cell either
  with N *real* clients (one open-loop process each) or with an
  N-modeled :class:`~repro.workloads.ClientPopulation` on a small
  driver pool, and reports the same shape either way — latency
  percentiles, hit rate, offered/shed/thinned accounting.
* :func:`compare_population` runs both arms on the same seed and
  distills the comparison into a KS distance over the latency samples
  plus hit-rate and delivered-rate deltas — the numbers the validation
  tests and ``benchmarks/bench_population.py`` assert tolerances on.

A population-of-1 (one modeled client, one driver) consumes the exact
draw sequence of one real open-loop client, so the comparison collapses
to equality there; larger populations are compared statistically.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..core import CellSpec, ReplicationMode
from ..sim import RandomStream
from .perf import build_cell_measured, gc_ledger, peak_rss_mb
from .stats import ks_distance

#: Percentiles reported (and compared) per arm.
PERCENTILES = (50.0, 90.0, 99.0)


def run_population_arm(mode: str, *,
                       num_modeled: int,
                       rate_per_client,
                       duration: float,
                       num_drivers: int = 4,
                       seed: int = 1,
                       transport: str = "pony",
                       num_hosts: int = 6,
                       num_keys: int = 512,
                       preload_fraction: float = 1.0,
                       value_bytes: int = 128,
                       batch_median: Optional[float] = None,
                       batch_sigma: float = 0.45,
                       batch_max: int = 100,
                       op_sample_rate: float = 1.0,
                       outstanding_cap: int = 64,
                       drain: float = 0.05,
                       keyspace_cache_ranks: int = 65536) -> Dict:
    """Drive one arm — ``mode`` is ``"real"`` or ``"population"``.

    Both modes build the same seeded cell, preload the zipf head
    (``preload_fraction`` of the corpus, so tail draws miss), and offer
    ``num_modeled * rate_per_client`` key-ops/sec for ``duration``
    simulated seconds; they differ only in who issues the arrivals.
    """
    # Imported here, not at module top: repro.workloads itself imports
    # repro.analysis (generators use the stats recorders), and a
    # module-level import back into workloads would deadlock whichever
    # package is imported second.
    from ..workloads import (BatchSizeSampler, KeySpace, LoadGenerator,
                             WorkloadMetrics, populate)

    if mode not in ("real", "population"):
        raise ValueError(f"mode must be 'real' or 'population', "
                         f"got {mode!r}")
    with gc_ledger() as gc_cost:
        wall_start = time.perf_counter()
        cell, build_cost = build_cell_measured(CellSpec(
            transport=transport, num_shards=num_hosts,
            mode=ReplicationMode.R3_2, seed=seed))
        sim = cell.sim
        stream = RandomStream(seed, "population-arm")
        keyspace = KeySpace(stream.child("keys"), num_keys,
                            cache_ranks=keyspace_cache_ranks)
        batch_sampler = None
        if batch_median is not None:
            batch_sampler = BatchSizeSampler(stream.child("batches"),
                                             median=batch_median,
                                             sigma=batch_sigma, hi=batch_max)

        loader = cell.connect_client(strategy="2xr")
        installed = sim.run(until=sim.process(populate(
            loader, keyspace, value_bytes,
            count=max(1, int(preload_fraction * num_keys)))))

        pool_size = num_modeled if mode == "real" else num_drivers
        clients = [cell.connect_client(strategy="2xr")
                   for _ in range(pool_size)]
        metrics = WorkloadMetrics()
        generator = LoadGenerator(sim, clients, keyspace,
                                  stream.child("load"), metrics,
                                  max_outstanding_per_client=outstanding_cap)
        if mode == "real":
            procs = generator.start_open_loop_gets(
                rate_per_client, duration, batch_sampler)
        else:
            procs = generator.start_population_gets(
                num_modeled, rate_per_client, duration, batch_sampler,
                op_sample_rate=op_sample_rate)
        start_sim = sim.now
        sim.run(until=sim.all_of(procs))
        sim.run(until=sim.now + drain)   # let in-flight batches land
        sim_elapsed = sim.now - start_sim
        events = sim._seq
        shed_total = cell.metrics.total("cliquemap_loadgen_shed_total")
        cell.close()
        wall = time.perf_counter() - wall_start

    latency = metrics.get_latency
    return {
        "mode": mode,
        "transport": transport,
        "num_hosts": num_hosts,
        "num_modeled": num_modeled,
        "drivers": pool_size,
        "seed": seed,
        "num_keys": num_keys,
        "preloaded": installed,
        "offered": metrics.offered,
        "shed": metrics.shed,
        "thinned": metrics.thinned,
        "driven": metrics.offered - metrics.shed - metrics.thinned,
        "ops": metrics.gets,
        "hits": metrics.hits,
        "errors": metrics.get_errors,
        "hit_rate": metrics.hit_rate,
        "shed_counter": shed_total,
        "op_sample_rate": op_sample_rate if mode == "population" else 1.0,
        "latency_us": {f"p{p:g}": latency.percentile(p) * 1e6
                       for p in PERCENTILES},
        "latency_samples": latency.samples(),
        "sim_seconds": sim_elapsed,
        "wall_seconds": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "offered_per_wall_sec": metrics.offered / wall if wall > 0
        else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        **build_cost,
        **gc_cost,
    }


def compare_population(num_modeled: int = 16, num_drivers: int = 2,
                       rate_per_client: float = 400.0,
                       duration: float = 0.5, seed: int = 1,
                       **kwargs) -> Dict:
    """Run the real-clients and population arms on one seed and compare.

    Returns both arm reports (latency samples stripped) plus the
    comparison scalars: the two-sample KS distance between latency
    distributions, the absolute hit-rate delta, and the delivered-ops
    ratio (population/real, thinning-corrected).
    """
    real = run_population_arm("real", num_modeled=num_modeled,
                              rate_per_client=rate_per_client,
                              duration=duration, seed=seed, **kwargs)
    population = run_population_arm(
        "population", num_modeled=num_modeled, num_drivers=num_drivers,
        rate_per_client=rate_per_client, duration=duration, seed=seed,
        **kwargs)
    ks = ks_distance(real["latency_samples"],
                     population["latency_samples"])
    sample_rate = population["op_sample_rate"]
    # Thinned ops are statistically delivered: scale the population's
    # driven count back up before comparing against the real arm.
    scaled = population["ops"] / sample_rate
    comparison = {
        "ks_distance": ks,
        "hit_rate_delta": abs(real["hit_rate"] -
                              population["hit_rate"]),
        "delivered_ratio": scaled / real["ops"] if real["ops"] else 0.0,
        "p99_ratio": (population["latency_us"]["p99"] /
                      real["latency_us"]["p99"]
                      if real["latency_us"]["p99"] else 0.0),
    }
    for arm in (real, population):
        del arm["latency_samples"]
    return {"real": real, "population": population,
            "comparison": comparison}


__all__ = ["PERCENTILES", "run_population_arm", "compare_population"]
