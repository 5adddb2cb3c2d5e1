#!/usr/bin/env python
"""Maintenance drill: warm-spare migration and crash recovery (§6.1, §5.4).

Runs steady GET load against an R=3.2 cell while injecting (1) a planned
restart served by a warm spare and (2) a forcible backend crash repaired
after restart — the scenarios of Figures 13 and 14, on the same
``repro.testing.maintenance_timeline`` driver. Prints latency
percentiles and RPC byte rates over the event timeline; the driver's
clients send no touches, so the RPC bytes are migration and repair.

Run:  python examples/maintenance_drill.py
"""

from repro.analysis import render_percentile_lines, render_table
from repro.core import (Cell, CellSpec, MaintenanceConfig, RepairConfig,
                        ReplicationMode)
from repro.testing import maintenance_timeline


def run_drill(kind: str):
    cell = Cell(CellSpec(
        name=f"drill-{kind}", mode=ReplicationMode.R3_2, num_shards=3,
        num_spares=1, transport="pony",
        repair_config=RepairConfig(enabled=True, scan_interval=5.0),
        maintenance_config=MaintenanceConfig(restart_delay=0.6,
                                             crash_restart_delay=0.6)))
    restart = (cell.maintenance.planned_restart if kind == "planned"
               else cell.maintenance.unplanned_crash)
    latency, rpc_rate, _reads, counts = maintenance_timeline(
        cell, lambda: restart(0))
    total, degraded = counts["total"], counts["degraded"]

    print(render_table(
        f"{kind} maintenance drill", ["metric", "value"],
        [["GETs", total],
         ["degraded ops (miss or retried)", degraded],
         ["degraded fraction", f"{degraded / max(1, total):.4%}"],
         ["migrations", cell.maintenance.stats.planned_migrations],
         ["entries migrated", cell.maintenance.stats.entries_migrated],
         ["keys recovered by repair", sum(
             s.stats.keys_recovered for s in cell.scanners.values())]]))
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
