"""Figure 11: preferred-backend selection under server load (§7.2.1).

A 3-backend R=3.2 cell using 2xR; clients repeatedly GET one 4KB KV
pair; an antagonist drives ~95% of one backend's NIC. Quoruming lets the
client take data from the first responder and ignore the slow replica,
so R=3.2 shows almost no latency elevation — while R=1, pinned to the
loaded server, suffers at both median and tail.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import (key_with_primary_shard, measure_gets, preload_keys,
                     run_once)

from repro.analysis import render_table
from repro.core import Cell, CellSpec, GetStrategy, ReplicationMode

VALUE_BYTES = 4096
OPS = 300
ANTAGONIST_FRACTION = 0.95


def run_case(mode: ReplicationMode, loaded: bool):
    cell = Cell(CellSpec(mode=mode, num_shards=3, transport="pony"))
    client = cell.connect_client(strategy=GetStrategy.TWO_R)
    # Pin the key to shard 0 so R=1 depends on the loaded backend.
    key = key_with_primary_shard(cell, 0)
    preload_keys(cell, client, [key], VALUE_BYTES)
    if loaded:
        victim = cell.backend_by_task(cell.task_for_shard(0))
        cell.fabric.start_antagonist(
            victim.host,
            ANTAGONIST_FRACTION * cell.fabric.config.host_rate_bytes_per_sec,
            direction="both")
        # Let antagonist queues build.
        cell.sim.run(until=cell.sim.now + 2e-3)
    recorder = measure_gets(cell, client, [key], OPS, interval=20e-6)
    return recorder.percentile(50), recorder.percentile(99)


def run_experiment():
    results = {}
    for mode, label in [(ReplicationMode.R3_2, "R=3.2"),
                        (ReplicationMode.R1, "R=1")]:
        base50, base99 = run_case(mode, loaded=False)
        load50, load99 = run_case(mode, loaded=True)
        results[label] = {
            "base": (base50, base99),
            "load": (load50, load99),
            "norm50": load50 / base50,
            "norm99": load99 / base99,
        }
    return results


def bench_fig11_preferred_backend(benchmark):
    results = run_once(benchmark, run_experiment)
    rows = []
    for label, r in results.items():
        rows.append([f"{label} no load", "1.00", "1.00",
                     f"{r['base'][0] * 1e6:.1f}", f"{r['base'][1] * 1e6:.1f}"])
        rows.append([f"{label} with load", f"{r['norm50']:.2f}",
                     f"{r['norm99']:.2f}",
                     f"{r['load'][0] * 1e6:.1f}", f"{r['load'][1] * 1e6:.1f}"])
    print()
    print(render_table(
        "Fig 11: preferred-backend benefit (latency normalized to no-load)",
        ["configuration", "norm 50p", "norm 99p", "50p (us)", "99p (us)"],
        rows))

    # R=3.2 tolerates the slow server: median within noise of unloaded.
    assert results["R=3.2"]["norm50"] < 1.3
    # R=1 is obliged to use the loaded backend: both median and tail
    # inflate substantially.
    assert results["R=1"]["norm50"] > 1.5
    assert results["R=1"]["norm99"] > 1.5
    # And R=1's degradation far exceeds R=3.2's.
    assert results["R=1"]["norm50"] > 1.5 * results["R=3.2"]["norm50"]
