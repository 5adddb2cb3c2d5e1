#!/usr/bin/env python
"""Post-deployment evolution (§6, Table 1 row 2, Fig 13).

The paper's operational reality: weekly binary rollouts, a hundred-plus
protocol changes, all absorbed by self-validating responses and client
retries. This example performs a live rolling upgrade of a serving cell
— every backend migrated to a warm spare, "rebuilt" with a new binary
that adds response fields and a higher protocol version, and handed the
shard back — while a client keeps reading, and prints what the client
experienced.

Run:  python examples/evolution.py
"""

from repro.analysis import render_table, snapshot_cell
from repro.core import (Cell, CellSpec, ClientConfig, GetStatus,
                        GetStrategy, MaintenanceConfig, ReplicationMode)
from repro.rpc import ProtocolVersion

KEYS = 40


def main():
    cell = Cell(CellSpec(
        name="evolution", mode=ReplicationMode.R3_2, num_shards=3,
        num_spares=1, transport="pony",
        maintenance_config=MaintenanceConfig(restart_delay=0.2)))
    client = cell.connect_client(
        strategy=GetStrategy.TWO_R,
        client_config=ClientConfig(touch_enabled=False))
    sim = cell.sim

    def seed():
        for i in range(KEYS):
            yield from client.set(b"key-%d" % i, b"value-%d" % i)

    sim.run(until=sim.process(seed()))
    print(f"corpus seeded: {KEYS} keys, config generation "
          f"{cell.config_store.peek('evolution').config_id}")

    outcomes = {"total": 0, "retried": 0, "failed": 0}
    done = [False]

    def load():
        i = 0
        while not done[0]:
            result = yield from client.get(b"key-%d" % (i % KEYS))
            outcomes["total"] += 1
            if result.attempts > 1:
                outcomes["retried"] += 1
            if result.status is not GetStatus.HIT:
                outcomes["failed"] += 1
            i += 1
            yield sim.timeout(1e-4)

    def rollout():
        for shard in range(3):
            print(f"  upgrading shard {shard} "
                  f"(migrate -> spare, restart, migrate back) ...")
            yield from cell.maintenance.planned_restart(shard)
            backend = cell.backend_by_task(cell.task_for_shard(shard))
            # The "new binary": richer Info response + higher version.
            original = backend._handle_info

            def upgraded(payload, context, _orig=original):
                info = yield from _orig(payload, context)
                info["build"] = "cm-2.0"
                info["features"] = ["compression", "append"]
                return info

            backend.rpc_server.register("Info", upgraded)
            backend.rpc_server.max_version = ProtocolVersion(2, 0)
        done[0] = True

    loader = sim.process(load())
    upgrade = sim.process(rollout())
    sim.run(until=upgrade)
    done[0] = True
    sim.run(until=loader)

    config = cell.config_store.peek("evolution")
    print()
    print(render_table(
        "rolling upgrade, as the client experienced it",
        ["metric", "value"],
        [["GETs issued during rollout", outcomes["total"]],
         ["GETs that needed a retry", outcomes["retried"]],
         ["GETs that failed", outcomes["failed"]],
         ["config generations consumed",
          config.config_id - 1],
         ["degraded fraction",
          f"{(outcomes['retried'] + outcomes['failed']) / max(1, outcomes['total']):.5f}"]]))
    print()
    print(snapshot_cell(cell, clients=[client]).render())


if __name__ == "__main__":
    main()
