"""Figures 18 & 19: latency and CPU under varying GET/SET mixes (§7.2.5).

Fixed 4KB values, fixed total op rate, GET fraction swept over 5%, 50%,
95%. More RPC-based SETs mean more framework CPU and worse typical
latency, because progressively more of the workload cannot use RMA.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import preload_keys, run_once

from repro.analysis import LatencyRecorder, render_table
from repro.core import (BackendConfig, Cell, CellSpec, GetStrategy,
                        ReplicationMode)
from repro.sim import RandomStream

VALUE_BYTES = 4096
TOTAL_OPS = 3000
MIXES = [0.05, 0.50, 0.95]  # fraction of ops that are GETs
KEYS = 64


def run_mix(get_fraction: float):
    cell = Cell(CellSpec(
        mode=ReplicationMode.R3_2, num_shards=3, transport="pony",
        backend_config=BackendConfig(data_initial_bytes=4 << 20,
                                     data_virtual_limit=64 << 20)))
    clients = [cell.connect_client(strategy=GetStrategy.TWO_R)
               for _ in range(4)]
    sim = cell.sim
    keys = [b"obj-%d" % i for i in range(KEYS)]

    preload_keys(cell, clients[0], keys, VALUE_BYTES)

    get_latency = LatencyRecorder()
    set_latency = LatencyRecorder()
    stream = RandomStream(21, f"mix-{get_fraction}")
    backend_cpu_before = cell.total_backend_cpu_seconds()
    pony_before = sum(
        b.host.ledger.seconds("pony") for b in cell.serving_backends())
    start = sim.now
    per_client = TOTAL_OPS // len(clients)

    def worker(client, worker_stream):
        for i in range(per_client):
            key = keys[worker_stream.randint(0, KEYS - 1)]
            if worker_stream.bernoulli(get_fraction):
                result = yield from client.get(key)
                get_latency.record(result.latency)
            else:
                result = yield from client.set(key, bytes(VALUE_BYTES))
                set_latency.record(result.latency)
            yield sim.timeout(20e-6)

    procs = [sim.process(worker(c, stream.child(str(i))))
             for i, c in enumerate(clients)]
    sim.run(until=sim.all_of(procs))
    elapsed = sim.now - start
    backend_cpu = (cell.total_backend_cpu_seconds() - backend_cpu_before +
                   sum(b.host.ledger.seconds("pony")
                       for b in cell.serving_backends()) - pony_before)
    # CPU*s per second of wall time (Fig 19's y axis).
    cpu_rate = backend_cpu / elapsed
    return get_latency, set_latency, cpu_rate


def run_experiment():
    return {mix: run_mix(mix) for mix in MIXES}


def bench_fig18_19_get_set_mix(benchmark):
    results = run_once(benchmark, run_experiment)
    rows = []
    for mix, (get_lat, set_lat, cpu_rate) in results.items():
        rows.append([
            f"{mix * 100:.0f}% GETs",
            get_lat.percentile(50) * 1e6 if get_lat.count else float("nan"),
            get_lat.percentile(99) * 1e6 if get_lat.count else float("nan"),
            set_lat.percentile(50) * 1e6 if set_lat.count else float("nan"),
            set_lat.percentile(99) * 1e6 if set_lat.count else float("nan"),
            f"{cpu_rate * 1e3:.2f}",
        ])
    print()
    print(render_table(
        "Fig 18/19: latency (us) and backend CPU under GET/SET mixes",
        ["mix", "GET 50p", "GET 99p", "SET 50p", "SET 99p",
         "backend CPU-ms/s"], rows))

    cpu = {mix: r[2] for mix, r in results.items()}
    get50 = {mix: r[0].percentile(50) for mix, r in results.items()}
    set50 = {mix: r[1].percentile(50) for mix, r in results.items()}
    # Fig 19: more SETs -> more backend CPU (RPC framework + mutation).
    assert cpu[0.05] > cpu[0.50] > cpu[0.95]
    assert cpu[0.05] > 2 * cpu[0.95]
    # Fig 18: SETs are far slower than GETs at every mix.
    for mix in MIXES:
        assert set50[mix] > 1.5 * get50[mix]
