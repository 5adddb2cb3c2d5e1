"""Figure 13: planned maintenance via warm spares (§6.1, §7.2.3).

An R=3.2 cell under a steady GET load is notified of a planned primary
restart: the primary migrates its shard to a warm spare (RPC byte
burst), exits, restarts, and the spare hands the data back (second RPC
burst). Takeaway: warm sparing hides the whole event — fewer than 1 op
in 1000 sees degraded performance.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import run_once

from repro.analysis import (CounterSeries, TimeSeries,
                            render_percentile_lines, render_table)
from repro.core import (Cell, CellSpec, ClientConfig, GetStatus,
                        GetStrategy, MaintenanceConfig, ReplicationMode)

KEYS = 120
VALUE_BYTES = 512
DURATION = 3.0
EVENT_AT = 0.5
BIN = 0.25


def rpc_bytes_total(cell):
    return sum(b.rpc_server.metrics.total_bytes
               for b in cell.backends.values())


def run_experiment():
    cell = Cell(CellSpec(
        mode=ReplicationMode.R3_2, num_shards=3, num_spares=1,
        transport="pony",
        maintenance_config=MaintenanceConfig(restart_delay=0.8)))
    # Touch reporting off so the RPC byte series isolates migration
    # traffic, as in the paper's chart.
    clients = [cell.connect_client(
        strategy=GetStrategy.TWO_R,
        client_config=ClientConfig(touch_enabled=False))
        for _ in range(4)]
    sim = cell.sim

    def setup():
        for i in range(KEYS):
            yield from clients[0].set(b"key-%d" % i, bytes(VALUE_BYTES))

    sim.run(until=sim.process(setup()))
    latency = TimeSeries(bin_width=BIN)
    rpc_rate = CounterSeries(bin_width=BIN)
    degraded = [0]
    total = [0]
    start = sim.now

    def load(client, stride):
        i = stride
        while sim.now - start < DURATION:
            result = yield from client.get(b"key-%d" % (i % KEYS))
            total[0] += 1
            latency.record(sim.now - start, result.latency)
            if result.status is not GetStatus.HIT or result.attempts > 1:
                degraded[0] += 1
            i += stride
            yield sim.timeout(1e-4)  # ~40K GET/s aggregate

    def sampler():
        last = rpc_bytes_total(cell)
        while sim.now - start < DURATION:
            yield sim.timeout(BIN)
            now_bytes = rpc_bytes_total(cell)
            rpc_rate.add(sim.now - start - 1e-3, now_bytes - last)
            last = now_bytes

    def event():
        yield sim.timeout(EVENT_AT)
        yield from cell.maintenance.planned_restart(0)

    procs = [sim.process(load(c, 7 + i)) for i, c in enumerate(clients)]
    procs.append(sim.process(sampler()))
    event_proc = sim.process(event())
    sim.run(until=sim.all_of(procs))
    sim.run(until=event_proc)
    return cell, latency, rpc_rate, degraded[0], total[0]


def bench_fig13_planned_maintenance(benchmark):
    cell, latency, rpc_rate, degraded, total = run_once(benchmark,
                                                        run_experiment)
    print()
    print(render_percentile_lines(
        "Fig 13: planned maintenance — latency (us) & RPC bytes/s",
        [("50p", [(t, v * 1e6) for t, v in latency.series(50)]),
         ("99.9p", [(t, v * 1e6) for t, v in latency.series(99.9)]),
         ("RPC B/s", rpc_rate.per_second())],
        x_label="t (s)"))
    print()
    print(render_table(
        "Fig 13 summary", ["metric", "value"],
        [["GETs", total],
         ["degraded ops", degraded],
         ["degraded fraction", f"{degraded / max(1, total):.5f}"],
         ["entries migrated",
          cell.maintenance.stats.entries_migrated]]))

    # Fewer than 1 op in 1000 sees degraded performance.
    assert degraded / max(1, total) < 1e-3
    # Data made two hops: out to the spare and back.
    assert cell.maintenance.stats.entries_migrated >= 2 * KEYS
    # RPC bytes show distinct bursts (migration out, migration back),
    # well above the steady-state background.
    series = rpc_rate.per_second()
    peak = max(v for _t, v in series)
    background = sorted(v for _t, v in series)[len(series) // 2]
    assert peak > 3 * max(background, 1.0)
    # Median latency stays flat through the event.
    medians = [v for _t, v in latency.series(50)]
    assert max(medians) < 3 * min(medians)
