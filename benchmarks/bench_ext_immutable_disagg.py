"""Extension benches: R=2/Immutable mode (§6.4) and disaggregation (§6.5).

Not a numbered figure — these sections describe post-launch modes whose
value the paper states qualitatively. The benches quantify both claims:

* §6.4: an immutable corpus served from an R=2 cell cuts lookup latency
  by orders of magnitude vs the durable system of record, while
  consulting only one replica per GET (vs three under R=3.2) and using
  2/3 of R=3.2's DRAM.
* §6.5: fetching shards from CliqueMap instead of holding them in every
  serving task trades nanosecond lookups for microsecond ones and
  decouples DRAM from compute scale.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import run_once

from repro.analysis import render_table
from repro.core import (Cell, CellSpec, GetStatus, GetStrategy,
                        ReplicationMode)
from repro.rpc import Principal, connect as rpc_connect
from repro.storage import CorpusLoader, SystemOfRecord

NUM_KEYS = 300
VALUE_BYTES = 1200
LOOKUPS = 300


def build_loaded_cell(mode):
    cell = Cell(CellSpec(mode=mode, num_shards=4, transport="pony"))
    sor_host = cell.fabric.add_host("host/sor")
    sor = SystemOfRecord(cell.sim, sor_host)
    sor.load({b"doc-%d" % i: bytes(VALUE_BYTES)
              for i in range(NUM_KEYS)})
    sor.freeze()
    loader = CorpusLoader(cell, sor)
    report = cell.sim.run(until=cell.sim.process(loader.load()))
    return cell, sor, report


def measure_cell(cell, sor):
    client = cell.connect_client(strategy=GetStrategy.TWO_R)
    sor_channel = rpc_connect(cell.sim, cell.fabric, client.host,
                              sor.rpc_server, Principal("app"))

    def app():
        reads_before = cell.transport.counters.reads
        cache_latency = []
        for i in range(LOOKUPS):
            result = yield from client.get(b"doc-%d" % (i % NUM_KEYS))
            assert result.status is GetStatus.HIT
            cache_latency.append(result.latency)
        rma_reads = cell.transport.counters.reads - reads_before
        start = cell.sim.now
        for i in range(20):
            yield from sor_channel.call("Read", {"key": b"doc-%d" % i})
        sor_latency = (cell.sim.now - start) / 20
        cache_latency.sort()
        return (cache_latency[len(cache_latency) // 2], sor_latency,
                rma_reads / LOOKUPS)

    return cell.sim.run(until=cell.sim.process(app()))


def run_experiment():
    results = {}
    for mode, label in [(ReplicationMode.R2_IMMUTABLE, "R=2/Immutable"),
                        (ReplicationMode.R3_2, "R=3.2")]:
        cell, sor, report = build_loaded_cell(mode)
        cache_median, sor_latency, reads_per_get = measure_cell(cell, sor)
        results[label] = {
            "cache_median": cache_median,
            "sor_latency": sor_latency,
            "reads_per_get": reads_per_get,
            "dram": cell.total_dram_bytes(),
            "replicas_written": report.replicas_written,
        }
    return results


def bench_ext_r2_immutable_and_disaggregation(benchmark):
    results = run_once(benchmark, run_experiment)
    rows = []
    for label, r in results.items():
        rows.append([label,
                     f"{r['cache_median'] * 1e6:.1f}",
                     f"{r['sor_latency'] * 1e6:.0f}",
                     f"{r['reads_per_get']:.1f}",
                     f"{r['dram'] / 1e6:.2f}",
                     r["replicas_written"]])
    print()
    print(render_table(
        "§6.4/§6.5: cached immutable corpus vs system of record",
        ["mode", "cache median (us)", "SoR read (us)", "RMA reads/GET",
         "DRAM (MB)", "replica writes at load"], rows))

    r2 = results["R=2/Immutable"]
    r32 = results["R=3.2"]
    # The cache beats persistent storage by orders of magnitude.
    assert r2["sor_latency"] > 20 * r2["cache_median"]
    # R=2 consults one replica (2 reads: index+data); R=3.2 quorums
    # (3 index + 1 data).
    assert r2["reads_per_get"] == pytest_approx(2.0)
    assert r32["reads_per_get"] >= 3.5
    # Two copies instead of three: 2/3 of the replica writes (and, for
    # corpora large relative to the backends' base footprint, 2/3 of the
    # DRAM; this small corpus sits inside the initial arenas).
    assert r2["replicas_written"] == 2 * NUM_KEYS
    assert r32["replicas_written"] == 3 * NUM_KEYS
    assert r2["dram"] <= r32["dram"]


def pytest_approx(value, rel=0.01):
    import pytest
    return pytest.approx(value, rel=rel)
