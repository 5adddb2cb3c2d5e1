"""Rolling binary upgrades: the paper's weekly fleet-wide rollout (§6.1).

Upgrades are "essentially always in progress". This test performs a full
rolling upgrade — every backend migrated to the warm spare, restarted,
and handed back, one at a time — under continuous client load, and
demands the same hitless behavior the paper reports.
"""


from repro.core import (Cell, CellSpec, ClientConfig, GetStatus,
                        GetStrategy, MaintenanceConfig, ReplicationMode)
from repro.rpc import ProtocolVersion


def test_rolling_upgrade_is_hitless():
    cell = Cell(CellSpec(
        mode=ReplicationMode.R3_2, num_shards=3, num_spares=1,
        transport="pony",
        maintenance_config=MaintenanceConfig(restart_delay=0.15)))
    clients = [cell.connect_client(
        strategy=GetStrategy.TWO_R,
        client_config=ClientConfig(touch_enabled=False))
        for _ in range(3)]
    sim = cell.sim
    outcomes = {"total": 0, "degraded": 0}
    keys = 60

    def setup():
        for i in range(keys):
            yield from clients[0].set(b"key-%d" % i, b"v%d" % i)

    sim.run(until=sim.process(setup()))

    done = [False]

    def load(client, stride):
        i = stride
        while not done[0]:
            result = yield from client.get(b"key-%d" % (i % keys))
            outcomes["total"] += 1
            if result.status is not GetStatus.HIT:
                outcomes["degraded"] += 1
            i += stride
            yield sim.timeout(1e-4)

    def rolling_upgrade():
        # Upgrade every shard in sequence, bumping the advertised
        # protocol version as the "new binary" comes up.
        for shard in range(3):
            yield from cell.maintenance.planned_restart(shard)
            task = cell.task_for_shard(shard)
            backend = cell.backend_by_task(task)
            backend.rpc_server.max_version = ProtocolVersion(1, 100 + shard)
            yield sim.timeout(0.05)
        done[0] = True

    procs = [sim.process(load(c, 7 + i)) for i, c in enumerate(clients)]
    upgrade = sim.process(rolling_upgrade())
    sim.run(until=upgrade)
    done[0] = True
    sim.run(until=sim.all_of(procs))

    assert outcomes["total"] > 1000
    assert outcomes["degraded"] == 0
    # Every shard is back on its primary task, upgraded.
    config = cell.config_store.peek("cell")
    assert config.shard_tasks == ["backend-0", "backend-1", "backend-2"]
    assert config.spares == ["spare-0"]
    for shard in range(3):
        backend = cell.backend_by_task(f"backend-{shard}")
        assert backend.rpc_server.max_version.minor >= 100
    # Data integrity after three full migrations.

    def verify():
        hits = 0
        for i in range(keys):
            result = yield from clients[0].get(b"key-%d" % i)
            hits += result.hit and result.value == b"v%d" % i
        return hits

    assert sim.run(until=sim.process(verify())) == keys


def test_upgrade_during_writes_preserves_latest_values():
    cell = Cell(CellSpec(
        mode=ReplicationMode.R3_2, num_shards=3, num_spares=1,
        transport="pony",
        maintenance_config=MaintenanceConfig(restart_delay=0.1)))
    writer = cell.connect_client()
    reader = cell.connect_client(strategy=GetStrategy.TWO_R)
    sim = cell.sim

    def setup():
        yield from writer.set(b"k", b"gen-0")

    sim.run(until=sim.process(setup()))

    def write_during():
        generation = 0
        end = sim.now + 0.8
        while sim.now < end:
            generation += 1
            yield from writer.set(b"k", b"gen-%d" % generation)
            yield sim.timeout(20e-3)
        return generation

    def upgrade():
        yield from cell.maintenance.planned_restart(0)

    writes = sim.process(write_during())
    maint = sim.process(upgrade())
    final_generation = sim.run(until=writes)
    sim.run(until=maint)

    def verify():
        result = yield from reader.get(b"k")
        return result

    result = sim.run(until=sim.process(verify()))
    assert result.hit
    # The value is one of the recent generations, never stale-by-miles
    # and never lost (migration + mutation versions interleave safely).
    observed_generation = int(result.value.split(b"-")[1])
    assert observed_generation >= final_generation - 1
