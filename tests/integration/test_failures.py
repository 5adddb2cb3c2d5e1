"""Failures, quorum degradation, repairs, and restart recovery (§5.4)."""


from repro.core import (Cell, CellSpec, GetStatus, GetStrategy,
                        RepairConfig, ReplicationMode, SetStatus)


def build(repair_enabled=False, scan_interval=0.5, num_spares=0):
    spec = CellSpec(
        mode=ReplicationMode.R3_2, num_shards=3, num_spares=num_spares,
        transport="pony",
        repair_config=RepairConfig(enabled=repair_enabled,
                                   scan_interval=scan_interval))
    return Cell(spec)


def run(cell, gen):
    return cell.sim.run(until=cell.sim.process(gen))


def test_reads_survive_single_backend_crash():
    """R=3.2 serves from the two remaining replicas after one dies."""
    cell = build()
    client = cell.connect_client(strategy=GetStrategy.TWO_R)

    def app():
        for i in range(20):
            yield from client.set(b"key-%d" % i, b"value-%d" % i)
        cell.backend_by_task("backend-1").crash()
        hits = 0
        for i in range(20):
            result = yield from client.get(b"key-%d" % i)
            if result.hit and result.value == b"value-%d" % i:
                hits += 1
        return hits

    assert run(cell, app()) == 20


def test_writes_survive_single_backend_crash():
    cell = build()
    client = cell.connect_client()

    def app():
        cell.backend_by_task("backend-0").crash()
        result = yield from client.set(b"k", b"v")
        assert result.status is SetStatus.APPLIED
        assert result.replicas_applied == 2
        got = yield from client.get(b"k")
        assert got.hit and got.value == b"v"

    run(cell, app())


def test_two_crashes_degrade_to_miss_for_inquorate_keys():
    """Losing two of three replicas leaves some keys below quorum."""
    cell = build()
    client = cell.connect_client(strategy=GetStrategy.TWO_R)

    def app():
        yield from client.set(b"k", b"v")
        cell.backend_by_task("backend-0").crash()
        cell.backend_by_task("backend-1").crash()
        result = yield from client.get(b"k")
        return result.status

    status = run(cell, app())
    # One replica cannot quorum: treated as miss/error, never a bogus hit.
    assert status in (GetStatus.MISS, GetStatus.ERROR)


def test_client_avoids_dead_backend_on_subsequent_gets():
    """After a connection failure the client sends 2-of-3 ops (§7.2.3)."""
    cell = build()
    client = cell.connect_client(strategy=GetStrategy.TWO_R)

    def app():
        yield from client.set(b"k", b"v")
        cell.backend_by_task("backend-1").crash()
        yield from client.get(b"k")  # discovers the failure
        reads_before = cell.transport.counters.reads
        for _ in range(10):
            result = yield from client.get(b"k")
            assert result.hit
        reads_after = cell.transport.counters.reads
        return reads_after - reads_before

    index_plus_data_reads = run(cell, app())
    # 10 GETs x (2 index fetches + 1 data fetch) = 30, not 40.
    assert index_plus_data_reads <= 30


def test_scan_repair_fixes_dirty_quorum():
    """A backend missing a key gets repaired by a cohort scan."""
    cell = build(repair_enabled=True, scan_interval=0.2)
    client = cell.connect_client()

    def app():
        yield from client.set(b"k", b"v")
        # Manufacture a dirty quorum: drop the key from one replica.
        victim = cell.backend_by_task("backend-1")
        key_hash = victim.placement.key_hash(b"k")
        yield from victim._remove_entry(key_hash)
        assert victim.lookup_local(b"k") is None
        # Wait for a scan cycle to find and repair it.
        yield cell.sim.timeout(1.0)
        assert victim.lookup_local(b"k") is not None
        # All three replicas converge on one version.
        versions = {backend.lookup_local(b"k")[1]
                    for backend in cell.serving_backends()}
        assert len(versions) == 1

    run(cell, app())


def test_scan_repair_counts_dirty_quorums():
    cell = build(repair_enabled=True, scan_interval=0.2)
    client = cell.connect_client()

    def app():
        for i in range(5):
            yield from client.set(b"key-%d" % i, b"v")
        victim = cell.backend_by_task("backend-2")
        for i in range(5):
            key_hash = victim.placement.key_hash(b"key-%d" % i)
            if victim.lookup_local(b"key-%d" % i) is not None:
                yield from victim._remove_entry(key_hash)
        yield cell.sim.timeout(1.0)

    run(cell, app())
    total_repaired = sum(s.stats.keys_repaired
                         for s in cell.scanners.values())
    assert total_repaired > 0


def test_restart_recovery_repopulates_backend():
    """An unplanned crash + restart pulls data back from the cohort."""
    cell = build(repair_enabled=True, scan_interval=100.0)  # scans idle
    client = cell.connect_client()

    def app():
        for i in range(30):
            yield from client.set(b"key-%d" % i, b"value-%d" % i)
        victim_task = cell.task_for_shard(1)
        before = cell.backend_by_task(victim_task).resident_keys
        yield from cell.maintenance.unplanned_crash(1, restart_delay=0.5)
        restarted = cell.backend_by_task(victim_task)
        return before, restarted.resident_keys

    before, after = run(cell, app())
    assert before > 0
    assert after == before


def test_reads_work_through_crash_and_recovery():
    cell = build(repair_enabled=True, scan_interval=100.0)
    client = cell.connect_client(strategy=GetStrategy.TWO_R)

    def app():
        for i in range(20):
            yield from client.set(b"key-%d" % i, b"v%d" % i)
        crash = cell.sim.process(
            cell.maintenance.unplanned_crash(0, restart_delay=0.2))
        # Keep reading during the outage.
        hits = 0
        reads = 0
        end = cell.sim.now + 0.4
        while cell.sim.now < end:
            for i in range(20):
                result = yield from client.get(b"key-%d" % i)
                reads += 1
                if result.hit:
                    hits += 1
            yield cell.sim.timeout(10e-3)
        yield crash
        return hits, reads

    hits, reads = run(cell, app())
    assert hits == reads  # no degradation visible to clients


def test_mutations_during_outage_are_repaired_after_restart():
    """SETs applied at 2/3 replicas propagate to the third on recovery."""
    cell = build(repair_enabled=True, scan_interval=0.3)
    client = cell.connect_client()

    def app():
        yield from client.set(b"before", b"1")
        victim_task = cell.task_for_shard(0)
        crash = cell.sim.process(
            cell.maintenance.unplanned_crash(0, restart_delay=0.2))
        yield cell.sim.timeout(10e-3)
        result = yield from client.set(b"during", b"2")
        assert result.status is SetStatus.APPLIED
        yield crash
        yield cell.sim.timeout(1.0)  # allow a scan cycle too
        restarted = cell.backend_by_task(victim_task)
        if restarted.placement.primary_shard(
                restarted.placement.key_hash(b"during")) in [
                (restarted.shard - i) % 3 for i in range(3)]:
            assert restarted.lookup_local(b"during") is not None

    run(cell, app())
