"""Figure 14: unplanned maintenance via repairs (§5.4, §7.2.3).

A backend is forcibly crashed under steady GET load; it restarts later
"on another host" and a burst of repair RPC traffic repopulates it from
the healthy cohort. Takeaways: repairs have little client-visible
impact, and while degraded the clients do *less* total work (they only
send two of three index fetches while awaiting reconnect).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import run_once

from repro.analysis import (CounterSeries, TimeSeries,
                            render_percentile_lines, render_table)
from repro.core import (Cell, CellSpec, ClientConfig, GetStatus,
                        GetStrategy, MaintenanceConfig, RepairConfig,
                        ReplicationMode)

KEYS = 120
DURATION = 3.0
CRASH_AT = 0.5
RESTART_DELAY = 1.0
BIN = 0.25


def rpc_bytes_total(cell):
    return sum(b.rpc_server.metrics.total_bytes
               for b in cell.backends.values())


def run_experiment():
    cell = Cell(CellSpec(
        mode=ReplicationMode.R3_2, num_shards=3, transport="pony",
        repair_config=RepairConfig(enabled=True, scan_interval=60.0),
        maintenance_config=MaintenanceConfig()))
    clients = [cell.connect_client(
        strategy=GetStrategy.TWO_R,
        client_config=ClientConfig(touch_enabled=False))
        for _ in range(4)]
    sim = cell.sim

    def setup():
        for i in range(KEYS):
            yield from clients[0].set(b"key-%d" % i, bytes(512))

    sim.run(until=sim.process(setup()))
    latency = TimeSeries(bin_width=BIN)
    rpc_rate = CounterSeries(bin_width=BIN)
    reads_per_bin = CounterSeries(bin_width=BIN)
    bad = [0]
    total = [0]
    start = sim.now

    def load(client, stride):
        i = stride
        while sim.now - start < DURATION:
            before = cell.transport.counters.reads
            result = yield from client.get(b"key-%d" % (i % KEYS))
            reads_per_bin.add(sim.now - start,
                              cell.transport.counters.reads - before)
            total[0] += 1
            latency.record(sim.now - start, result.latency)
            if result.status is not GetStatus.HIT:
                bad[0] += 1
            i += stride
            yield sim.timeout(1e-4)

    def sampler():
        last = rpc_bytes_total(cell)
        while sim.now - start < DURATION:
            yield sim.timeout(BIN)
            now_bytes = rpc_bytes_total(cell)
            rpc_rate.add(sim.now - start - 1e-3, now_bytes - last)
            last = now_bytes

    def event():
        yield sim.timeout(CRASH_AT)
        yield from cell.maintenance.unplanned_crash(
            0, restart_delay=RESTART_DELAY)

    procs = [sim.process(load(c, 7 + i)) for i, c in enumerate(clients)]
    procs.append(sim.process(sampler()))
    event_proc = sim.process(event())
    sim.run(until=sim.all_of(procs))
    sim.run(until=event_proc)
    restored = cell.backend_by_task(cell.task_for_shard(0))
    return (cell, latency, rpc_rate, reads_per_bin, bad[0], total[0],
            restored.resident_keys)


def bench_fig14_unplanned_maintenance(benchmark):
    (cell, latency, rpc_rate, reads_per_bin, bad, total,
     restored_keys) = run_once(benchmark, run_experiment)
    print()
    print(render_percentile_lines(
        "Fig 14: unplanned crash — latency (us) & RPC bytes/s",
        [("50p", [(t, v * 1e6) for t, v in latency.series(50)]),
         ("99.9p", [(t, v * 1e6) for t, v in latency.series(99.9)]),
         ("RPC B/s", rpc_rate.per_second()),
         ("RMA reads/s", reads_per_bin.per_second())],
        x_label="t (s)"))
    print()
    print(render_table(
        "Fig 14 summary", ["metric", "value"],
        [["GETs", total], ["failed GETs", bad],
         ["restored resident keys", restored_keys],
         ["keys recovered by repair",
          sum(s.stats.keys_recovered for s in cell.scanners.values())]]))

    # No client-visible misses: quorum masks the failure, repairs restore.
    assert bad == 0
    # The restarted backend was repopulated by repairs.
    assert restored_keys == KEYS
    # A repair RPC burst is visible after the restart.
    series = dict(rpc_rate.per_second())
    burst_bins = [v for t, v in series.items()
                  if t > CRASH_AT + RESTART_DELAY - BIN]
    quiet_bins = [v for t, v in series.items() if t < CRASH_AT]
    assert max(burst_bins) > 3 * max(max(quiet_bins), 1.0)
    # While degraded, clients send fewer RMA reads per op (2-of-3).
    reads = dict(reads_per_bin.per_second())
    degraded_rate = min(v for t, v in reads.items()
                        if CRASH_AT < t < CRASH_AT + RESTART_DELAY)
    healthy_rate = max(v for t, v in reads.items() if t < CRASH_AT)
    assert degraded_rate < healthy_rate
