"""Figure 7: client & Pony Express CPU per op by lookup strategy (§6.3).

Measures CPU-ns/op attributed to the CliqueMap client code and to Pony
Express (engines on both sides), for the three lookup strategies: 2xR
(two one-sided reads), SCAR (one NIC-side scan-and-read), and MSG
(two-sided messaging that wakes a server application thread).

Shapes to hold (paper Fig 7): SCAR costs about as much as a single Pony
read, i.e. roughly half of 2xR's total; MSG is the most expensive by a
clear margin because of server thread wake-ups.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import drive, run_once

from repro.analysis import render_table
from repro.core import Cell, CellSpec, GetStrategy, ReplicationMode

OPS = 400
VALUE_BYTES = 64

STRATEGIES = [("2xR", GetStrategy.TWO_R),
              ("SCAR", GetStrategy.SCAR),
              ("MSG", GetStrategy.MSG)]


def measure(strategy: GetStrategy):
    cell = Cell(CellSpec(mode=ReplicationMode.R1, num_shards=2,
                         transport="pony"))
    client = cell.connect_client(strategy=strategy)
    backend_hosts = [b.host for b in cell.serving_backends()]

    def setup():
        yield from client.set(b"k", b"v" * VALUE_BYTES)

    drive(cell, setup())

    def snapshot():
        pony = client.host.ledger.seconds("pony") + \
            sum(h.ledger.seconds("pony") for h in backend_hosts)
        cl = client.host.ledger.seconds("cliquemap-client")
        msg_app = sum(h.ledger.seconds("msg-app") for h in backend_hosts)
        return pony, cl, msg_app

    before = snapshot()

    def loop():
        for _ in range(OPS):
            yield from client.get(b"k")

    drive(cell, loop())
    after = snapshot()
    # The telemetry registry is the system of record for op counts: it
    # both checks that every GET hit and provides the CPU-per-op
    # denominator, exactly as the paper's figures divide monitored CPU
    # by monitored op rates.
    ops = cell.metrics.total("cliquemap_ops_total", op="get")
    hits = cell.metrics.total("cliquemap_ops_total", op="get", status="hit")
    assert ops == hits == OPS, (ops, hits)
    pony_ns = (after[0] - before[0]) / ops * 1e9
    client_ns = (after[1] - before[1]) / ops * 1e9
    msg_app_ns = (after[2] - before[2]) / ops * 1e9
    return client_ns, pony_ns, msg_app_ns


def run_experiment():
    return {name: measure(strategy) for name, strategy in STRATEGIES}


def bench_fig07_lookup_strategy_cpu(benchmark):
    results = run_once(benchmark, run_experiment)
    rows = [[name, f"{c:.0f}", f"{p:.0f}", f"{a:.0f}",
             f"{c + p + a:.0f}"]
            for name, (c, p, a) in results.items()]
    print()
    print(render_table(
        "Fig 7: CPU-ns/op by lookup strategy",
        ["strategy", "CliqueMap client", "Pony Express",
         "server app thread", "total"], rows))

    total = {name: sum(v) for name, v in results.items()}
    pony = {name: v[1] for name, v in results.items()}
    client = {name: v[0] for name, v in results.items()}
    # SCAR's Pony cost ~ one read ~ half of 2xR's two reads.
    assert 0.35 * pony["2xR"] < pony["SCAR"] < 0.75 * pony["2xR"]
    # SCAR also halves CliqueMap-client completions.
    assert client["SCAR"] < client["2xR"]
    # MSG costs the most overall: thread wake-ups dominate (§6.3).
    assert total["MSG"] > total["2xR"] > total["SCAR"]
    # MSG's extra cost exceeds the whole SCAR scan cost.
    assert results["MSG"][2] > 0  # app thread CPU present only for MSG
    assert results["SCAR"][2] == 0
