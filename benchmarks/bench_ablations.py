"""Ablations of the design choices DESIGN.md calls out.

1. **Tearing / self-validation** — with multi-step entry writes (the
   real RMA hazard) checksum retries occur and no torn value escapes;
   with artificially atomic writes the retries vanish, showing the
   validation machinery is load-bearing, not overhead.
2. **First-responder quoruming vs primary/backup reads** — under an
   antagonist on the primary, first-responder reads keep latency flat
   while forced-primary reads degrade (the §8 rationale for quoruming
   over HydraDB/FaRM-style primary/backup).
3. **Eviction policy** — LRU vs ARC vs random hit rates under a
   zipf-plus-scan workload with constrained capacity (§4.2's
   configurable policies).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import drive, key_with_primary_shard, measure_gets, preload_keys, run_once

from repro.analysis import render_table
from repro.core import (BackendConfig, Cell, CellSpec, ClientConfig,
                        GetStrategy, ReplicationMode)
from repro.sim import RandomStream, ZipfSampler


# ---------------------------------------------------------------------------
# Ablation 1: tearing
# ---------------------------------------------------------------------------

def run_tearing(atomic: bool):
    cell = Cell(CellSpec(
        mode=ReplicationMode.R3_2, num_shards=3, transport="pony",
        backend_config=BackendConfig(min_write_step=100e-6,
                                     atomic_entry_writes=atomic)))
    writer = cell.connect_client(strategy=GetStrategy.TWO_R)
    reader = cell.connect_client(strategy=GetStrategy.TWO_R)
    torn_escapes = [0]
    hits = [0]

    def setup():
        yield from writer.set(b"k", b"A" * 300)

    drive(cell, setup())

    def write_loop():
        for i in range(30):
            yield from writer.set(b"k", (b"%c" % (65 + i % 26)) * 300)

    def read_loop():
        end = cell.sim.now + 5e-3
        while cell.sim.now < end:
            result = yield from reader.get(b"k")
            if result.hit:
                hits[0] += 1
                if len(set(result.value)) != 1:
                    torn_escapes[0] += 1
            yield cell.sim.timeout(3e-6)

    cell.sim.process(write_loop())
    drive(cell, read_loop())
    return (reader.stats["torn_reads"], torn_escapes[0], hits[0])


def bench_ablation_tearing(benchmark):
    def experiment():
        return run_tearing(atomic=False), run_tearing(atomic=True)

    (real_retries, real_escapes, real_hits), \
        (atomic_retries, atomic_escapes, atomic_hits) = \
        run_once(benchmark, experiment)
    print()
    print(render_table(
        "Ablation: multi-step writes (tear window) vs atomic writes",
        ["mode", "torn reads caught", "torn values escaped", "hits"],
        [["multi-step (real RMA)", real_retries, real_escapes, real_hits],
         ["atomic (ablated)", atomic_retries, atomic_escapes, atomic_hits]]))
    # The tear window is real: validation catches it, nothing escapes.
    assert real_retries > 0
    assert real_escapes == 0
    # Remove the hazard and the retries disappear with it.
    assert atomic_retries == 0
    assert atomic_escapes == 0


# ---------------------------------------------------------------------------
# Ablation 2: first-responder vs forced-primary reads
# ---------------------------------------------------------------------------

def run_quorum_mode(force_primary: bool):
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))
    client = cell.connect_client(
        strategy=GetStrategy.TWO_R,
        client_config=ClientConfig(force_primary_data_fetch=force_primary))
    key = key_with_primary_shard(cell, 0)
    preload_keys(cell, client, [key], 4096)
    victim = cell.backend_by_task(cell.task_for_shard(0))
    cell.fabric.start_antagonist(
        victim.host,
        0.95 * cell.fabric.config.host_rate_bytes_per_sec,
        direction="both")
    cell.sim.run(until=cell.sim.now + 2e-3)
    recorder = measure_gets(cell, client, [key], 200, interval=20e-6)
    return recorder.percentile(50), recorder.percentile(99)


def bench_ablation_quorum_first_responder(benchmark):
    def experiment():
        return run_quorum_mode(False), run_quorum_mode(True)

    (fr50, fr99), (fp50, fp99) = run_once(benchmark, experiment)
    print()
    print(render_table(
        "Ablation: data fetch policy under a loaded primary (4KB, R=3.2)",
        ["policy", "50p (us)", "99p (us)"],
        [["first responder (CliqueMap)", fr50 * 1e6, fr99 * 1e6],
         ["forced primary (primary/backup style)", fp50 * 1e6, fp99 * 1e6]]))
    # First-responder reads dodge the loaded primary entirely.
    assert fp50 > 2 * fr50
    assert fp99 > 2 * fr99


# ---------------------------------------------------------------------------
# Ablation 3: eviction policies
# ---------------------------------------------------------------------------

def run_eviction(policy: str):
    cell = Cell(CellSpec(
        mode=ReplicationMode.R1, num_shards=1, transport="pony",
        backend_config=BackendConfig(
            eviction_policy=policy,
            data_initial_bytes=128 * 1024, data_virtual_limit=128 * 1024,
            slab_bytes=64 * 1024, num_buckets=2048, ways=7,
            overflow_rpc_fallback=False,
            index_resize_load_factor=2.0)))
    client = cell.connect_client(
        strategy=GetStrategy.TWO_R,
        client_config=ClientConfig(touch_flush_interval=0.5e-3))
    stream = RandomStream(17, f"evict-{policy}")
    zipf = ZipfSampler(stream.child("keys"), n=400, s=1.1)
    hits = [0]
    lookups = [0]

    def app():
        # Values of ~900B: capacity ~ 120 resident entries of 400 hot keys.
        for i in range(120):
            yield from client.set(b"k-%d" % zipf.sample(), b"x" * 900)
        scan = 0
        for round_num in range(120):
            for _ in range(6):
                key = b"k-%d" % zipf.sample()
                result = yield from client.get(key)
                lookups[0] += 1
                if result.hit:
                    hits[0] += 1
                else:
                    yield from client.set(key, b"x" * 900)
            # Periodic cold scan pressure.
            for _ in range(2):
                yield from client.set(b"scan-%d" % scan, b"x" * 900)
                scan += 1
            yield cell.sim.timeout(0.2e-3)

    drive(cell, app())
    return hits[0] / max(1, lookups[0])


def bench_ablation_eviction_policies(benchmark):
    def experiment():
        return {policy: run_eviction(policy)
                for policy in ["lru", "arc", "random"]}

    rates = run_once(benchmark, experiment)
    print()
    print(render_table(
        "Ablation: eviction policy hit rates (zipf + scan, tight capacity)",
        ["policy", "hit rate"],
        [[p, f"{r:.3f}"] for p, r in rates.items()]))
    # Recency-aware policies beat random; ARC resists the scan at least
    # as well as LRU does.
    assert rates["lru"] > rates["random"]
    assert rates["arc"] > rates["random"]
