"""Scale smoke: a paper-sized step — 200-host cells, 100k ops end-to-end.

Two checks ride on one benchmark:

* **Throughput** — a 200-host R=3.2 cell (one backend task per shard)
  serves 100k batched GETs split across the pony and 1RMA transports,
  and the whole thing must finish in under 60 s of wall-clock. The
  events/sec and simulated-ops-per-wall-second land in
  ``BENCH_scale.json``, beside what a 200-host cell costs the host to
  exist: build seconds and RSS per backend host (under a ceiling) from
  the pony run — the first cell this process builds, so its peak-RSS
  growth is the cell's own — and the process's peak RSS at the end,
  plus the cyclic collector's collections and seconds in each run.
* **Equivalence** — kernel and model optimizations must change no
  behavior. A small seeded slice of the same workload must reproduce
  the golden per-op outcome digest, final clock and event count below,
  observed or not. The model parks processes on the live kernel
  (``Resource.hold``), so it can no longer be replayed on the verbatim
  pre-fast-path kernel; the golden values are that replay, frozen: the
  digest and clock are what both kernels produced while both could run
  the model (re-stamped once since, when fabric jitter moved to one
  stream per egress link), and the event count is re-stamped whenever a
  change removes scheduler entries on purpose (230,117 before
  ``hold``). Nothing in the model iterates a set of names or key
  hashes any more, so the slice runs in this
  process under whatever hash seed it was launched with (it used to
  need a fresh ``PYTHONHASHSEED=0`` interpreter); the values survived
  that fix unchanged, and the process-global region-id counter does not
  reach the digest — a slice run after other cells reproduces them too.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import RSS_MB_PER_HOST_CEILING, check_build_cost, run_once

from repro.analysis import run_scale_workload

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_scale.json"

NUM_HOSTS = 200
WALL_BUDGET_SECONDS = 60.0
PONY_OPS = 60_000
ONERMA_OPS = 40_000

# The equivalence slice uses a smaller cell to keep its three arms cheap;
# equivalence is a property of the op path, not of the cell size.
EQUIV_HOSTS = 24
EQUIV_OPS = 2_000
GOLDEN = {
    "digest": "5aa4b2611892c3f89bd6b0d669a40afe",
    "sim_seconds": 0.001613852941330693,
    "events": 129_727,
}


def _run_scale():
    # The pony run carries the observability plane in scrape-only form:
    # the 200-host budget must hold with time-series scraping enabled.
    pony = run_scale_workload(transport="pony", num_hosts=NUM_HOSTS,
                              ops=PONY_OPS, batch=8, observe=True)
    onerma = run_scale_workload(transport="1rma", num_hosts=NUM_HOSTS,
                                ops=ONERMA_OPS, batch=8)
    return {"pony": pony, "1rma": onerma}


def bench_scale_cell(benchmark):
    result = run_once(benchmark, _run_scale)
    total_ops = 0
    total_wall = 0.0
    total_events = 0
    print()
    for transport, run in result.items():
        total_ops += run["ops"]
        total_wall += run["wall_seconds"]
        total_events += run["events"]
        print(f"  {transport:<5} hosts={NUM_HOSTS} ops={run['ops']:,} "
              f"wall={run['wall_seconds']:.1f}s "
              f"events/s={run['events_per_sec']:,.0f} "
              f"sim-ops/wall-s={run['ops_per_wall_sec']:,.0f} "
              f"hits={run['hits']:,} errors={run['errors']} "
              f"scrapes={run['scrapes']} gc={run['gc_collections']} "
              f"in {run['gc_seconds']:.2f}s")
    print(f"  total ops={total_ops:,} wall={total_wall:.1f}s "
          f"(budget {WALL_BUDGET_SECONDS:.0f}s)")
    build = dict(result["pony"], peak_rss_mb=max(
        run["peak_rss_mb"] for run in result.values()))

    assert total_ops >= 100_000, total_ops
    assert total_wall < WALL_BUDGET_SECONDS, (
        f"scale smoke too slow: {total_wall:.1f}s for {total_ops:,} ops")
    for transport, run in result.items():
        assert run["errors"] == 0, (transport, run)
    check_build_cost(build)

    OUTPUT.write_text(json.dumps({
        "benchmark": "scale",
        "num_hosts": NUM_HOSTS,
        "build_seconds": build["build_seconds"],
        "peak_rss_mb": build["peak_rss_mb"],
        "rss_mb_per_host": build["rss_mb_per_host"],
        "ceiling_rss_mb_per_host": RSS_MB_PER_HOST_CEILING,
        "gc_collections": [sum(gens) for gens in zip(
            *(run["gc_collections"] for run in result.values()))],
        "gc_seconds": sum(run["gc_seconds"] for run in result.values()),
        "total_ops": total_ops,
        "total_wall_seconds": total_wall,
        "ops_per_wall_sec": total_ops / total_wall,
        "events_per_sec": total_events / total_wall,
        "runs": {
            transport: {
                "ops": run["ops"],
                "wall_seconds": run["wall_seconds"],
                "events": run["events"],
                "events_per_sec": run["events_per_sec"],
                "ops_per_wall_sec": run["ops_per_wall_sec"],
                "digest": run["digest"],
                "gc_collections": run["gc_collections"],
                "gc_seconds": run["gc_seconds"],
            } for transport, run in result.items()
        },
    }, indent=2, sort_keys=True) + "\n")
    print(f"  wrote {OUTPUT.name}")


def equivalence_slice(observe: bool = False) -> dict:
    """Run the equivalence slice (in this process, under any hash seed)."""
    return run_scale_workload(num_hosts=EQUIV_HOSTS, ops=EQUIV_OPS,
                              observe=observe)


def bench_scale_digest_matches_golden(benchmark):
    """Same seed, same outcomes: optimizations change no behavior, and
    neither does enabling time-series scraping (clock taps consume no
    scheduling sequence numbers)."""
    live, observed = run_once(
        benchmark, lambda: (equivalence_slice(), equivalence_slice(True)))
    print(f"\n  golden   digest={GOLDEN['digest']} "
          f"events={GOLDEN['events']:,}")
    print(f"  live     digest={live['digest']} events={live['events']:,}")
    print(f"  observed digest={observed['digest']} "
          f"events={observed['events']:,} scrapes={observed['scrapes']:,}")
    for arm in (live, observed):
        assert {key: arm[key] for key in GOLDEN} == GOLDEN, (arm, GOLDEN)
    assert observed["scrapes"] > 0, observed
