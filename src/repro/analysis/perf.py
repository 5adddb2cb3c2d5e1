"""Perf-trajectory harness: batched vs singleton multi-key GETs (§7.1).

The repo's perf trajectory is a series of ``BENCH_*.json`` files, one per
optimization, each produced by a deterministic simulated experiment. This
module provides the first datapoint: the wire-level batched ``get_multi``
path against a loop of singleton GETs, comparing per-key engine/NIC CPU
and per-key latency on the same topology.

Determinism: both arms build a fresh :class:`~repro.core.Cell` from the
same seed, so the comparison is exact and reproducible — no wall-clock
anywhere.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from ..core import Cell, CellSpec, GetStatus, ReplicationMode
from ..sim import RandomStream, ZipfSampler

# Which CPU-ledger component carries the transport's dataplane cost.
# Pony engines charge both sides; hardware transports charge only the
# client's submit/poll CPU (the server path has no software).
ENGINE_COMPONENTS: Dict[str, tuple] = {
    "pony": ("pony",),
    "rdma": ("rma-client",),
    "1rma": ("rma-client",),
}


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MiB."""
    import resource  # Unix-only; the library itself must import anywhere
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


@contextmanager
def gc_ledger() -> Iterator[Dict]:
    """What the cyclic garbage collector did inside the block.

    Yields ``{"gc_collections": [gen0, gen1, gen2], "gc_seconds": s}``,
    filled in as collections run: how many of each generation, and the
    host seconds spent in them. cProfile cannot show this cost — it books
    each collection on whichever frame happened to allocate — so the
    scale benches report it beside their wall seconds.
    """
    ledger = {"gc_collections": [0, 0, 0], "gc_seconds": 0.0}
    started = [0.0]

    def tally(phase: str, info: Dict) -> None:
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            ledger["gc_seconds"] += time.perf_counter() - started[0]
            ledger["gc_collections"][info["generation"]] += 1

    gc.callbacks.append(tally)
    try:
        yield ledger
    finally:
        gc.callbacks.remove(tally)


def build_cell_measured(spec: CellSpec) -> Tuple[Cell, Dict]:
    """Build ``spec``'s cell and report what existing costs the host:
    ``build_seconds`` of wall, and ``rss_mb_per_host`` — how far the
    build pushed the process's peak RSS, per backend host. From a fresh
    interpreter that is the cell's footprint; after an earlier, larger
    run in the same process it is a lower bound (the peak was already
    set), so the scale benches build their headline cell first."""
    rss_before, started = peak_rss_mb(), time.perf_counter()
    cell = Cell(spec)
    return cell, {
        "build_seconds": time.perf_counter() - started,
        "rss_mb_per_host": (peak_rss_mb() - rss_before) / spec.num_shards,
    }


def _engine_cpu(hosts, components) -> float:
    return sum(host.ledger.seconds(component)
               for host in hosts for component in components)


def _build_cell(transport: str, num_shards: int, seed: int):
    cell = Cell(CellSpec(transport=transport, num_shards=num_shards,
                         seed=seed))
    client = cell.connect_client(strategy="2xr")
    return cell, client


def _preload(cell, client, keys: List[bytes], value_bytes: int) -> None:
    def setup():
        for key in keys:
            result = yield from client.set(key, bytes(value_bytes))
            assert result.ok, (key, result)

    cell.sim.run(until=cell.sim.process(setup()))


def run_multiget_benchmark(num_keys: int = 32, transport: str = "pony",
                           value_bytes: int = 128, num_shards: int = 6,
                           seed: int = 1) -> Dict:
    """Measure batched ``get_multi`` against ``num_keys`` singleton GETs.

    Returns a JSON-ready dict with per-key engine CPU and latency for
    both arms plus the batched/singleton speedup ratios.
    """
    components = ENGINE_COMPONENTS[transport]
    keys = [b"mk-%05d" % i for i in range(num_keys)]

    # Arm 1: singleton GETs, issued sequentially so the mean per-key
    # latency is the undisturbed 2xR op latency.
    cell_s, client_s = _build_cell(transport, num_shards, seed)
    _preload(cell_s, client_s, keys, value_bytes)
    hosts_s = [client_s.host] + [b.host for b in cell_s.backends.values()]
    cpu_before = _engine_cpu(hosts_s, components)
    latencies: List[float] = []

    def singleton_loop():
        for key in keys:
            result = yield from client_s.get(key)
            assert result.status is GetStatus.HIT, (key, result)
            latencies.append(result.latency)

    cell_s.sim.run(until=cell_s.sim.process(singleton_loop()))
    singleton_cpu = (_engine_cpu(hosts_s, components) -
                     cpu_before) / num_keys
    singleton_latency = sum(latencies) / num_keys
    singleton_reads = cell_s.transport.counters.reads
    cell_s.close()

    # Arm 2: one batched get_multi over the same keys on a fresh,
    # identically-seeded cell.
    cell_b, client_b = _build_cell(transport, num_shards, seed)
    _preload(cell_b, client_b, keys, value_bytes)
    hosts_b = [client_b.host] + [b.host for b in cell_b.backends.values()]
    cpu_before = _engine_cpu(hosts_b, components)
    started = cell_b.sim.now
    results = cell_b.sim.run(
        until=cell_b.sim.process(client_b.get_multi(keys)))
    batch_elapsed = cell_b.sim.now - started
    batched_cpu = (_engine_cpu(hosts_b, components) - cpu_before) / num_keys
    batched_latency = batch_elapsed / num_keys
    for key, result in zip(keys, results):
        assert result.status is GetStatus.HIT, (key, result)
    counters = cell_b.transport.counters
    fallbacks = cell_b.metrics.total("cliquemap_batch_fallback_total")
    cell_b.close()

    return {
        "benchmark": "multiget",
        "transport": transport,
        "num_keys": num_keys,
        "value_bytes": value_bytes,
        "num_shards": num_shards,
        "seed": seed,
        "singleton": {
            "engine_cpu_per_key_us": singleton_cpu * 1e6,
            "latency_per_key_us": singleton_latency * 1e6,
            "transport_reads": singleton_reads,
        },
        "batched": {
            "engine_cpu_per_key_us": batched_cpu * 1e6,
            "latency_per_key_us": batched_latency * 1e6,
            "transport_reads": counters.reads,
            "batched_reads": counters.batched_reads,
            "batched_keys": counters.batched_keys,
            "fallback_keys": fallbacks,
        },
        "engine_cpu_speedup": singleton_cpu / batched_cpu,
        "latency_speedup": singleton_latency / batched_latency,
    }


# Kernel-stress shape mix: (name, workers, rounds). Weighted toward
# zero-delay work because that is what a cell run schedules most — every
# event trigger (process resume, RPC completion, RMA callback) is a
# zero-delay action; only genuine link/CPU delays and timers hit the
# heap. ``ticker`` keeps the heap path honest in the blend.
KERNEL_STRESS_SHAPES = (
    ("ticker", 8, 1200),    # staggered heap timers
    ("storm", 16, 1200),    # zero-delay timeout resumes (ready queue)
    ("sleeper", 8, 1200),   # retry/backoff waits (parked delays)
    ("callbacks", 2, 9600),  # bare call_soon storm, no generators
    ("fanout", 8, 600),     # all_of/any_of + manually-signalled events
)


def _stress_shape(sim, shape: str, workers: int, rounds: int) -> None:
    """Run one shape to completion on ``sim``."""

    def ticker(period: float):
        for _ in range(rounds):
            yield sim.timeout(period)

    def storm():
        for _ in range(rounds):
            yield sim.timeout(0)

    def sleeper():
        for i in range(rounds):
            yield sim.delay(1e-6 * (i % 5))

    def fanout():
        for i in range(rounds // 8):
            yield sim.all_of([sim.timeout(1e-6 * k) for k in range(4)])
            _ev, _value = yield sim.any_of(
                [sim.timeout(1e-6), sim.timeout(2e-6)])
            signal = sim.event()
            sim.call_in(1e-6, signal.succeed, i)
            yield signal

    if shape == "callbacks":
        remaining = [workers * rounds]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.call_soon(tick)

        for _ in range(workers):
            sim.call_soon(tick)
        sim.run()
        return
    gens = {"ticker": lambda w: ticker(1e-6 * (1 + w)),
            "storm": lambda w: storm(),
            "sleeper": lambda w: sleeper(),
            "fanout": lambda w: fanout()}[shape]
    procs = [sim.process(gens(w)) for w in range(workers)]
    sim.run(until=sim.all_of(procs))


def run_kernel_stress(sim_factory, scale: float = 1.0,
                      repeats: int = 3) -> Dict:
    """Measure raw kernel events/sec over the deterministic shape mix.

    ``sim_factory`` builds a fresh :class:`~repro.sim.Simulator` per
    run. Each shape runs ``repeats`` times and keeps its best wall time
    (standard microbenchmark practice: the minimum is the least
    noise-polluted sample). Returns per-shape and aggregate events
    (scheduled actions) and wall seconds.
    """
    shapes: Dict[str, Dict] = {}
    total_events = 0
    total_wall = 0.0
    for name, workers, rounds in KERNEL_STRESS_SHAPES:
        best_wall = float("inf")
        events = 0
        for _ in range(max(1, repeats)):
            sim = sim_factory()
            start = time.perf_counter()
            _stress_shape(sim, name, workers, max(1, int(rounds * scale)))
            wall = time.perf_counter() - start
            events = sim._seq
            best_wall = min(best_wall, wall)
        shapes[name] = {
            "events": events,
            "wall_seconds": best_wall,
            "events_per_sec": events / best_wall if best_wall > 0 else 0.0,
        }
        total_events += events
        total_wall += best_wall
    return {
        "shapes": shapes,
        "events": total_events,
        "wall_seconds": total_wall,
        "events_per_sec": total_events / total_wall if total_wall else 0.0,
    }


def run_scale_workload(transport: str = "pony", num_hosts: int = 200,
                       ops: int = 50000, seed: int = 1,
                       num_clients: int = 8, batch: int = 4,
                       num_keys: int = 1024, value_bytes: int = 128,
                       tracing: bool = False, observe: bool = False) -> Dict:
    """Drive a paper-scale cell end-to-end and digest every op outcome.

    Builds a ``num_hosts``-backend cell (R=3 quorum), preloads a zipf
    corpus, and issues ``ops`` closed-loop GETs through batched
    ``get_multi`` across ``num_clients`` clients. Returns wall-clock,
    scheduled-action, and simulated-time totals plus a digest over every
    op's (status, value-size, attempts, latency) in completion order —
    two kernels are order-equivalent iff their digests match.

    ``observe`` attaches the observability plane in scrape-only form
    (time-series scraper + SLO engine, no probers: prober traffic would
    perturb the op digest); scraping rides a clock tap, so the digest
    and event count stay identical to an unobserved run.
    """
    spec = CellSpec(transport=transport, num_shards=num_hosts,
                    mode=ReplicationMode.R3_2, seed=seed, tracing=tracing)
    with gc_ledger() as gc_cost:
        wall_start = time.perf_counter()
        cell, build_cost = build_cell_measured(spec)
        sim = cell.sim
        if observe:
            from ..observe import ObserveConfig
            cell.observe(ObserveConfig(probers=0, scrape_interval=1e-3))
        keys = [b"sk-%05d" % i for i in range(num_keys)]
        value = bytes(value_bytes)

        client0 = cell.connect_client(strategy="2xr")
        clients = [client0] + [cell.connect_client(strategy="2xr")
                               for _ in range(num_clients - 1)]

        def preload():
            for key in keys:
                result = yield from client0.set(key, value)
                assert result.ok, (key, result)

        sim.run(until=sim.process(preload()))

        digest = hashlib.blake2b(digest_size=16)
        counts = {"ops": 0, "hits": 0, "misses": 0, "errors": 0}
        per_worker = -(-ops // num_clients)  # ceil: total >= requested ops

        def worker(wid: int, client) -> "object":
            sampler = ZipfSampler(RandomStream(seed, f"scale-{wid}"), num_keys)
            issued = 0
            while issued < per_worker:
                n = min(batch, per_worker - issued)
                wanted = [keys[r] for r in sampler.sample_n(n)]
                results = yield from client.get_multi(wanted)
                for result in results:
                    counts["ops"] += 1
                    if result.status is GetStatus.HIT:
                        counts["hits"] += 1
                    elif result.status is GetStatus.MISS:
                        counts["misses"] += 1
                    else:
                        counts["errors"] += 1
                    digest.update(
                        b"%d|%s|%d|%d|%s;" %
                        (wid, result.status.name.encode(),
                         len(result.value or b""), result.attempts,
                         repr(result.latency).encode()))
                issued += n

        procs = [sim.process(worker(i, c)) for i, c in enumerate(clients)]
        start_sim = sim.now
        sim.run(until=sim.all_of(procs))
        sim_elapsed = sim.now - start_sim
        scrapes = cell.observability.scraper.scrapes if observe else 0
        cell.close()
        wall = time.perf_counter() - wall_start

    return {
        "benchmark": "scale",
        "scrapes": scrapes,
        "transport": transport,
        "num_hosts": num_hosts,
        "num_clients": num_clients,
        "mode": "R3_2",
        "seed": seed,
        "ops": counts["ops"],
        "hits": counts["hits"],
        "misses": counts["misses"],
        "errors": counts["errors"],
        "digest": digest.hexdigest(),
        "events": sim._seq,
        "sim_seconds": sim_elapsed,
        "wall_seconds": wall,
        "events_per_sec": sim._seq / wall if wall > 0 else 0.0,
        "ops_per_wall_sec": counts["ops"] / wall if wall > 0 else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        **build_cost,
        **gc_cost,
    }


def write_bench_json(result: Dict, path: str) -> None:
    """Write one perf datapoint where the trajectory tooling expects it."""
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_multiget_table(result: Dict) -> str:
    """A small human-readable summary of one multiget datapoint."""
    lines = [
        f"multiget benchmark — transport={result['transport']} "
        f"keys={result['num_keys']}",
        f"  singleton: {result['singleton']['engine_cpu_per_key_us']:.3f} "
        f"us CPU/key, {result['singleton']['latency_per_key_us']:.2f} "
        f"us latency/key",
        f"  batched:   {result['batched']['engine_cpu_per_key_us']:.3f} "
        f"us CPU/key, {result['batched']['latency_per_key_us']:.2f} "
        f"us latency/key",
        f"  speedup:   {result['engine_cpu_speedup']:.2f}x engine CPU, "
        f"{result['latency_speedup']:.2f}x latency",
    ]
    return "\n".join(lines)


__all__ = [
    "ENGINE_COMPONENTS", "run_multiget_benchmark", "write_bench_json",
    "render_multiget_table", "run_kernel_stress", "run_scale_workload",
    "gc_ledger",
]
