"""Baseline comparison: CliqueMap vs the fully RPC-based MemcacheG (§1, §2.1).

The paper's core motivation quantified: an RPC KVCS pays >50 CPU-µs per
op even when the server-side work is a handful of memory accesses, which
caps op rate and wastes the DRAM-cost advantage of a distributed cache.
CliqueMap's RMA read path removes that floor.

Measured per system, identical substrate and workload: peak closed-loop
GET rate per worker, combined client+server CPU per GET, and median GET
latency.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import run_once

from repro.analysis import render_table
from repro.baselines import MemcacheGCluster
from repro.core import Cell, CellSpec, GetStrategy, ReplicationMode

OPS = 400
VALUE_BYTES = 64
WORKERS = 4


def measure_cliquemap(strategy: GetStrategy):
    cell = Cell(CellSpec(mode=ReplicationMode.R1, num_shards=4,
                         transport="pony"))
    client = cell.connect_client(strategy=strategy)
    sim = cell.sim
    hosts = [client.host] + [b.host for b in cell.serving_backends()]

    def setup():
        yield from client.set(b"k", b"v" * VALUE_BYTES)

    sim.run(until=sim.process(setup()))
    cpu_before = sum(h.ledger.total() for h in hosts)
    start = sim.now
    latencies = []

    def worker():
        for _ in range(OPS // WORKERS):
            result = yield from client.get(b"k")
            assert result.hit
            latencies.append(result.latency)

    procs = [sim.process(worker()) for _ in range(WORKERS)]
    sim.run(until=sim.all_of(procs))
    elapsed = sim.now - start
    cpu = sum(h.ledger.total() for h in hosts) - cpu_before
    latencies.sort()
    return (OPS / elapsed, cpu / OPS * 1e6,
            latencies[len(latencies) // 2] * 1e6)


def measure_memcacheg():
    cluster = MemcacheGCluster(num_shards=4)
    client = cluster.make_client()
    sim = cluster.sim
    hosts = [client.host] + [s.host for s in cluster.servers]

    def setup():
        yield from client.set(b"k", b"v" * VALUE_BYTES)

    sim.run(until=sim.process(setup()))
    cpu_before = sum(h.ledger.total() for h in hosts)
    start = sim.now
    latencies = []

    def worker():
        for _ in range(OPS // WORKERS):
            t0 = sim.now
            found, _value = yield from client.get(b"k")
            assert found
            latencies.append(sim.now - t0)

    procs = [sim.process(worker()) for _ in range(WORKERS)]
    sim.run(until=sim.all_of(procs))
    elapsed = sim.now - start
    cpu = sum(h.ledger.total() for h in hosts) - cpu_before
    latencies.sort()
    return (OPS / elapsed, cpu / OPS * 1e6,
            latencies[len(latencies) // 2] * 1e6)


def run_experiment():
    return {
        "CliqueMap SCAR": measure_cliquemap(GetStrategy.SCAR),
        "CliqueMap 2xR": measure_cliquemap(GetStrategy.TWO_R),
        "MemcacheG (RPC)": measure_memcacheg(),
    }


def bench_baseline_memcacheg_comparison(benchmark):
    results = run_once(benchmark, run_experiment)
    rows = [[name, f"{rate:,.0f}", f"{cpu:.1f}", f"{latency:.1f}"]
            for name, (rate, cpu, latency) in results.items()]
    print()
    print(render_table(
        "CliqueMap vs MemcacheG (64B GETs, 4 workers)",
        ["system", "GET/s", "CPU-us/GET (client+server)",
         "median latency (us)"], rows))

    scar = results["CliqueMap SCAR"]
    two_r = results["CliqueMap 2xR"]
    memcacheg = results["MemcacheG (RPC)"]
    # The RPC baseline pays the >50us floor; RMA paths don't.
    assert memcacheg[1] > 50.0
    assert scar[1] < memcacheg[1] / 10
    assert two_r[1] < memcacheg[1] / 8
    # Peak op rate: RMA wins by a wide margin.
    assert scar[0] > 3 * memcacheg[0]
    # Latency: the RMA paths are several times faster.
    assert scar[2] < memcacheg[2] / 3
