"""Figure 12: SCAR vs 2xR with large values and client load (§7.2.2).

Under R=3.2, SCAR solicits three full copies of the datum (plus three
buckets), while 2xR fetches three buckets but only one copy of the
datum. For 64KB values that is ~195KB vs ~67KB per GET: SCAR transiently
incasts the client, and with competing load on the client's downlink it
loses its single-round-trip advantage. Takeaway: deploy SCAR when
values/batches are small relative to NIC speed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import measure_gets, preload_keys, run_once

from repro.analysis import render_table
from repro.core import (BackendConfig, Cell, CellSpec, GetStrategy,
                        ReplicationMode)

LARGE_VALUE = 64 * 1024
SMALL_VALUE = 1024
OPS = 120
CLIENT_LOAD_FRACTION = 0.70


def run_case(strategy: GetStrategy, value_bytes: int, client_load: bool):
    cell = Cell(CellSpec(
        mode=ReplicationMode.R3_2, num_shards=3, transport="pony",
        backend_config=BackendConfig(data_initial_bytes=4 << 20,
                                     data_virtual_limit=64 << 20)))
    client = cell.connect_client(strategy=strategy)
    keys = [b"big-%d" % i for i in range(4)]
    preload_keys(cell, client, keys, value_bytes)
    if client_load:
        cell.fabric.start_antagonist(
            client.host,
            CLIENT_LOAD_FRACTION * cell.fabric.config.host_rate_bytes_per_sec,
            direction="ingress")
        cell.sim.run(until=cell.sim.now + 2e-3)
    recorder = measure_gets(cell, client, keys, OPS, interval=50e-6)
    return recorder.percentile(50)


def run_experiment():
    results = {}
    for strategy, name in [(GetStrategy.TWO_R, "2xR"),
                           (GetStrategy.SCAR, "SCAR")]:
        results[(name, "no load")] = run_case(strategy, LARGE_VALUE, False)
        results[(name, "with load")] = run_case(strategy, LARGE_VALUE, True)
    # The small-value control: SCAR's advantage case.
    results[("2xR", "small")] = run_case(GetStrategy.TWO_R, SMALL_VALUE,
                                         False)
    results[("SCAR", "small")] = run_case(GetStrategy.SCAR, SMALL_VALUE,
                                          False)
    return results


def bench_fig12_scar_vs_2xr_incast(benchmark):
    results = run_once(benchmark, run_experiment)
    rows = [[name, cond, f"{median * 1e6:.1f}"]
            for (name, cond), median in results.items()]
    print()
    print(render_table(
        "Fig 12: SCAR vs 2xR median GET latency (64KB values)",
        ["strategy", "condition", "median latency (us)"], rows))

    # 64KB values: SCAR's 3x data incast makes it lose to 2xR...
    assert results[("SCAR", "no load")] > results[("2xR", "no load")]
    # ...and competing client ingress load makes the gap wider.
    scar_penalty_loaded = (results[("SCAR", "with load")] /
                           results[("2xR", "with load")])
    scar_penalty_unloaded = (results[("SCAR", "no load")] /
                             results[("2xR", "no load")])
    assert scar_penalty_loaded > scar_penalty_unloaded
    # Control: with small values SCAR's single round trip wins.
    assert results[("SCAR", "small")] < results[("2xR", "small")]
