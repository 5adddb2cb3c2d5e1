"""Figure 20: performance under varying value sizes (§7.2.5).

Fixed GET rate, value sizes swept 32B .. 16KB. For the sizes common in
production (small, below MTU) per-op fixed costs dominate — latency is
nearly flat — with per-byte costs only appearing at the largest sizes.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import preload_keys, run_once

from repro.analysis import LatencyRecorder, render_table
from repro.core import (BackendConfig, Cell, CellSpec, GetStrategy,
                        ReplicationMode)
from repro.sim import RandomStream

SIZES = [32, 256, 2048, 16384]
OPS_PER_SIZE = 600
GET_FRACTION = 0.9
KEYS = 32


def run_size(value_bytes: int):
    cell = Cell(CellSpec(
        mode=ReplicationMode.R3_2, num_shards=3, transport="pony",
        backend_config=BackendConfig(data_initial_bytes=4 << 20,
                                     data_virtual_limit=64 << 20)))
    client = cell.connect_client(strategy=GetStrategy.TWO_R)
    sim = cell.sim
    keys = [b"obj-%d" % i for i in range(KEYS)]

    preload_keys(cell, client, keys, value_bytes)
    get_latency = LatencyRecorder()
    set_latency = LatencyRecorder()
    stream = RandomStream(31, f"size-{value_bytes}")

    def loop():
        for i in range(OPS_PER_SIZE):
            key = keys[i % KEYS]
            if stream.bernoulli(GET_FRACTION):
                result = yield from client.get(key)
                get_latency.record(result.latency)
            else:
                result = yield from client.set(key, bytes(value_bytes))
                set_latency.record(result.latency)
            yield sim.timeout(50e-6)  # fixed, moderate rate

    sim.run(until=sim.process(loop()))
    return get_latency, set_latency


def run_experiment():
    return {size: run_size(size) for size in SIZES}


def bench_fig20_value_size_sweep(benchmark):
    results = run_once(benchmark, run_experiment)
    rows = []
    for size, (get_lat, set_lat) in results.items():
        rows.append([size,
                     get_lat.percentile(50) * 1e6,
                     get_lat.percentile(99) * 1e6,
                     set_lat.percentile(50) * 1e6,
                     set_lat.percentile(99) * 1e6])
    print()
    print(render_table(
        "Fig 20: latency (us) vs value size",
        ["value size (B)", "GET 50p", "GET 99p", "SET 50p", "SET 99p"],
        rows))

    get50 = {size: r[0].percentile(50) for size, r in results.items()}
    set50 = {size: r[1].percentile(50) for size, r in results.items()}
    # Fixed costs dominate for production-typical (small) sizes: 32B and
    # 2KB GETs are within ~50% of each other.
    assert get50[2048] < 1.5 * get50[32]
    # Per-byte costs only emerge at the largest size.
    assert get50[16384] > get50[32]
    # SETs are uniformly slower than GETs (RPC vs RMA).
    for size in SIZES:
        assert set50[size] > get50[size]
    # Nominal lookup latencies across the whole sweep (tens of us).
    assert all(v < 500e-6 for v in get50.values())
