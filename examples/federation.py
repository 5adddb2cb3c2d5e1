#!/usr/bin/env python
"""Fleet view: one corpus, many datacenters (§1).

CliqueMap serves ~150M QPS from ~50 clusters across 20 datacenters. This
example runs a three-zone federation — one cell per datacenter, each on
its own simulator, joined by WAN links — and counts, per zone, where
each federated read was served:

* ``local_hits``: the zone's own cell, over RMA;
* ``remote_hits``: another zone's cell over the WAN, after a local miss
  (the value is then filled into the local cell);
* ``misses``: no zone held the key.

Writes fan out to every zone.

The zones run one after another in this process (``mode="sequential"``);
``mode="parallel"`` runs one worker process per zone and prints the same
numbers.

Run:  python examples/federation.py
"""

from repro.analysis import render_table, run_federation_arm
from repro.core import CellSpec, ReplicationMode, ZoneWorkloadSpec
from repro.net import FabricConfig

ZONES = ["us-central", "europe-west", "asia-east"]


def main():
    report = run_federation_arm(
        ZONES,
        cell_spec=CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                           transport="pony"),
        fabric_config=FabricConfig(inter_zone_delay=40e-3),  # ~80ms RTT
        workload=ZoneWorkloadSpec(clients=4),
        duration=0.5, mode="sequential")

    rows = [[digest["zone"], digest["ops"],
             digest["fed_stats"]["local_hits"],
             digest["fed_stats"]["remote_hits"],
             digest["fed_stats"]["misses"], digest["events"]]
            for digest in report.digests]
    print(render_table(
        "three-zone federation: where each read was served",
        ["zone", "ops", "local_hits", "remote_hits", "misses", "events"],
        rows))
    print()
    print(f"  {report.windows} lookahead windows, "
          f"{report.messages_routed} WAN messages routed")


if __name__ == "__main__":
    main()
