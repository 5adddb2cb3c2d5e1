#!/usr/bin/env python
"""Maintenance drill: warm-spare migration and crash recovery (§6.1, §5.4).

Runs steady GET load against an R=3.2 cell while injecting (1) a planned
restart served by a warm spare and (2) a forcible backend crash repaired
after restart — the scenarios of Figures 13 and 14. Prints latency
percentiles and RPC byte rates over the event timeline.

Run:  python examples/maintenance_drill.py
"""

from repro.analysis import (CounterSeries, TimeSeries,
                            render_percentile_lines, render_table)
from repro.core import (Cell, CellSpec, GetStatus, GetStrategy,
                        MaintenanceConfig, RepairConfig, ReplicationMode)


def rpc_bytes_total(cell):
    return sum(b.rpc_server.metrics.total_bytes
               for b in cell.backends.values())


def run_drill(kind: str):
    cell = Cell(CellSpec(
        name=f"drill-{kind}", mode=ReplicationMode.R3_2, num_shards=3,
        num_spares=1, transport="pony",
        repair_config=RepairConfig(enabled=True, scan_interval=5.0),
        maintenance_config=MaintenanceConfig(restart_delay=0.6,
                                             crash_restart_delay=0.6)))
    clients = [cell.connect_client(strategy=GetStrategy.TWO_R)
               for _ in range(4)]
    sim = cell.sim

    def setup():
        for i in range(100):
            yield from clients[0].set(b"key-%d" % i, b"x" * 512)

    sim.run(until=sim.process(setup()))

    latency = TimeSeries(bin_width=0.25)
    rpc_rate = CounterSeries(bin_width=0.25)
    degraded = [0]
    total = [0]
    duration = 3.0
    start = sim.now

    def load(client, offset):
        end = start + duration
        i = offset
        while sim.now < end:
            result = yield from client.get(b"key-%d" % (i % 100))
            total[0] += 1
            latency.record(sim.now - start, result.latency)
            if result.status is not GetStatus.HIT or result.attempts > 1:
                degraded[0] += 1
            i += 7
            yield sim.timeout(1e-4)

    def rpc_sampler():
        last = rpc_bytes_total(cell)
        end = start + duration
        while sim.now < end:
            yield sim.timeout(0.25)
            now_bytes = rpc_bytes_total(cell)
            rpc_rate.add(sim.now - start - 0.01, now_bytes - last)
            last = now_bytes

    def event():
        yield sim.timeout(0.5)
        if kind == "planned":
            yield from cell.maintenance.planned_restart(0)
        else:
            yield from cell.maintenance.unplanned_crash(0)

    procs = [sim.process(load(c, i * 13)) for i, c in enumerate(clients)]
    procs.append(sim.process(rpc_sampler()))
    event_proc = sim.process(event())
    sim.run(until=sim.all_of(procs))
    sim.run(until=event_proc)

    print(render_table(
        f"{kind} maintenance drill", ["metric", "value"],
        [["GETs", total[0]],
         ["degraded ops (miss or retried)", degraded[0]],
         ["degraded fraction", f"{degraded[0] / max(1, total[0]):.4%}"],
         ["migrations", cell.maintenance.stats.planned_migrations],
         ["entries migrated", cell.maintenance.stats.entries_migrated],
         ["repairs applied", sum(b.stats.repairs_applied
                                 for b in cell.backends.values())]]))
    print()
    print(render_percentile_lines(
        f"{kind}: latency (us) and RPC bytes/s over the event",
        [("50p", [(t, v * 1e6) for t, v in latency.series(50)]),
         ("99.9p", [(t, v * 1e6) for t, v in latency.series(99.9)]),
         ("RPC B/s", rpc_rate.per_second())],
        x_label="t (s)"))
    print()


def main():
    run_drill("planned")
    run_drill("unplanned")


if __name__ == "__main__":
    main()
