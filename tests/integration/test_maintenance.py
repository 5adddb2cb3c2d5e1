"""Planned maintenance via warm spares (§6.1, Fig 13)."""


from repro.core import (Cell, CellSpec, GetStatus, GetStrategy,
                        MaintenanceConfig, ReplicationMode, SetStatus)


def build(mode=ReplicationMode.R3_2, num_shards=3, num_spares=1,
          restart_delay=0.2):
    spec = CellSpec(mode=mode, num_shards=num_shards,
                    num_spares=num_spares, transport="pony",
                    maintenance_config=MaintenanceConfig(
                        restart_delay=restart_delay))
    return Cell(spec)


def run(cell, gen):
    return cell.sim.run(until=cell.sim.process(gen))


def test_planned_migration_moves_data_to_spare_and_back():
    cell = build()
    client = cell.connect_client()

    def app():
        for i in range(25):
            yield from client.set(b"key-%d" % i, b"value-%d" % i)
        primary = cell.backend_by_task(cell.task_for_shard(0))
        before = primary.resident_keys
        yield from cell.maintenance.planned_restart(0)
        restored = cell.backend_by_task(cell.task_for_shard(0))
        return before, restored.resident_keys, restored.task_name

    before, after, task = run(cell, app())
    assert before > 0
    assert after == before
    assert task == "backend-0"  # shard handed back to the primary
    assert cell.maintenance.stats.planned_migrations == 1
    assert cell.maintenance.stats.entries_migrated >= 2 * before


def test_config_generation_bumps_during_migration():
    cell = build()
    client = cell.connect_client()
    start_id = cell.config_store.peek("cell").config_id

    def app():
        yield from client.set(b"k", b"v")
        yield from cell.maintenance.planned_restart(0)

    run(cell, app())
    end_id = cell.config_store.peek("cell").config_id
    assert end_id >= start_id + 2  # repoint to spare + repoint back


def test_spare_serves_shard_during_primary_restart():
    cell = build(restart_delay=0.5)
    client = cell.connect_client(strategy=GetStrategy.TWO_R)

    def app():
        for i in range(15):
            yield from client.set(b"key-%d" % i, b"v%d" % i)
        maint = cell.sim.process(cell.maintenance.planned_restart(0))
        # While the primary is down, all keys must still be readable.
        yield cell.sim.timeout(0.1)  # migration done; primary restarting
        hits = 0
        for i in range(15):
            result = yield from client.get(b"key-%d" % i)
            if result.hit:
                hits += 1
        yield maint
        return hits

    assert run(cell, app()) == 15


def test_reads_hitless_throughout_planned_maintenance():
    """Fig 13's takeaway: virtually no client-visible impact."""
    cell = build(restart_delay=0.3)
    client = cell.connect_client(strategy=GetStrategy.TWO_R)
    outcomes = []

    def app():
        for i in range(10):
            yield from client.set(b"key-%d" % i, b"v%d" % i)
        maint = cell.sim.process(cell.maintenance.planned_restart(0))
        end = cell.sim.now + 0.6
        while cell.sim.now < end:
            for i in range(10):
                result = yield from client.get(b"key-%d" % i)
                outcomes.append(result.status)
            yield cell.sim.timeout(5e-3)
        yield maint

    run(cell, app())
    assert outcomes
    errors = sum(1 for s in outcomes if s is not GetStatus.HIT)
    assert errors == 0


def test_mutations_work_during_migration():
    cell = build(restart_delay=0.3)
    client = cell.connect_client()

    def app():
        yield from client.set(b"k0", b"before")
        maint = cell.sim.process(cell.maintenance.planned_restart(0))
        yield cell.sim.timeout(0.05)
        result = yield from client.set(b"k1", b"during")
        assert result.status is SetStatus.APPLIED
        yield maint
        got = yield from client.get(b"k1")
        assert got.hit and got.value == b"during"

    run(cell, app())


def test_no_spare_raises():
    from repro.core import CliqueMapError
    cell = build(num_spares=0)

    def app():
        yield from cell.maintenance.planned_restart(0)

    proc = cell.sim.process(app())
    proc.defused = True
    cell.sim.run()
    # A CliqueMapError (the library's error type), not a bare
    # RuntimeError, so callers can catch the library's exceptions
    # uniformly.
    assert isinstance(proc.value, CliqueMapError)
    assert "no warm spare" in str(proc.value)
    # The failed cycle must not leave the topology lock held.
    assert cell.topology_lock.count == 0


def test_spare_pool_is_reusable():
    cell = build(num_spares=1, restart_delay=0.1)
    client = cell.connect_client()

    def app():
        yield from client.set(b"k", b"v")
        yield from cell.maintenance.planned_restart(0)
        yield from cell.maintenance.planned_restart(1)  # reuses the spare
        got = yield from client.get(b"k")
        assert got.hit

    run(cell, app())
    assert cell.maintenance.stats.planned_migrations == 2


def test_r1_planned_migration_is_lossless():
    """The original warm-spare motivation: R=1 would lose all data on
    restart without sparing (§6.1)."""
    cell = build(mode=ReplicationMode.R1, num_shards=3, num_spares=1,
                 restart_delay=0.2)
    client = cell.connect_client()

    def app():
        for i in range(20):
            yield from client.set(b"key-%d" % i, b"v%d" % i)
        yield from cell.maintenance.planned_restart(0)
        hits = 0
        for i in range(20):
            result = yield from client.get(b"key-%d" % i)
            if result.hit:
                hits += 1
        return hits

    assert run(cell, app()) == 20


def test_unplanned_crash_mid_transfer_loses_no_acked_writes():
    """An unplanned crash landing in the middle of a planned migration's
    ``_transfer`` must neither wedge either maintenance generator nor
    lose acknowledged writes: the interrupted batches are written off
    and en-masse repairs (§5.4) repopulate the restarted task from the
    healthy cohort."""
    from repro.core import RepairConfig

    spec = CellSpec(mode=ReplicationMode.R3_2, num_shards=3, num_spares=1,
                    transport="pony",
                    repair_config=RepairConfig(enabled=True,
                                               scan_interval=0.05),
                    maintenance_config=MaintenanceConfig(restart_delay=0.1))
    cell = Cell(spec)
    client = cell.connect_client()
    sim = cell.sim
    keys = 400

    def seed():
        for i in range(keys):
            result = yield from client.set(b"mk-%d" % i, b"mv-%d" % i)
            assert result.status is SetStatus.APPLIED

    run(cell, seed())
    migrated_at_crash = []

    def crash_mid_transfer():
        # The first _transfer (primary -> spare) is seven batches of 64
        # and takes ~0.5ms; land the crash squarely inside it.
        yield sim.timeout(0.2e-3)
        migrated_at_crash.append(cell.maintenance.stats.entries_migrated)
        yield from cell.maintenance.unplanned_crash(0, restart_delay=0.05)

    planned = sim.process(cell.maintenance.planned_restart(0))
    planned.defused = True
    crash = sim.process(crash_mid_transfer())
    crash.defused = True
    sim.run(until=sim.all_of([planned, crash]))

    # Neither generator wedged, and the crash really was mid-transfer.
    assert planned.is_alive is False
    assert crash.is_alive is False
    assert migrated_at_crash[0] < keys
    assert cell.maintenance.stats.unplanned_restarts == 1

    # Let repairs repopulate the restarted task, then verify every
    # acknowledged write is still readable with its acked value.
    sim.run(until=sim.now + 2.0)

    def verify():
        hits = 0
        for i in range(keys):
            result = yield from client.get(b"mk-%d" % i, deadline=0.5)
            if result.status is GetStatus.HIT and \
                    result.value == b"mv-%d" % i:
                hits += 1
        return hits

    assert run(cell, verify()) == keys
