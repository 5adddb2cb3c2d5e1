"""Multi-cell federation across datacenters (§1, Table 1 row 5).

Every zone is an in-process :class:`ZoneShard`; :func:`pump` plays the
coordinator, routing each shard's outbox at every WAN-delay barrier.
"""


from repro.core import (CellSpec, GetResult, GetStatus, ReplicationMode,
                        SetStatus, ZoneShard, ZoneShardSpec,
                        ZoneWorkloadSpec)
from repro.net import FabricConfig


def build(zones=("dc-a", "dc-b"), inter_zone_delay=2e-3):
    """One built shard per zone, each with one federated client."""
    fabric_config = FabricConfig(inter_zone_delay=inter_zone_delay,
                                 delay_jitter=0.0)
    shards = []
    for index, zone in enumerate(zones):
        shard = ZoneShard(ZoneShardSpec(
            zone=zone, zones=tuple(zones),
            cell_spec=CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                               transport="pony"),
            fabric_config=fabric_config,
            workload=ZoneWorkloadSpec(clients=1, shared_keys=1,
                                      private_keys=1)))
        shard.index = index
        shard.build()
        shards.append(shard)
    return shards


def pump(shards, shard, gen):
    """Run ``gen`` as a process on ``shard`` until it ends, advancing
    every shard in WAN-delay windows and delivering each window's
    messages at its barrier, as the coordinator does. Returns the
    process's value."""
    delay = shard.spec.fabric_config.inter_zone_delay
    now = max(other.sim.now for other in shards)
    # Level first, so no message lands in a lagging shard's past.
    for other in shards:
        other.sim.run_until(now)
    proc = shard.sim.process(gen)
    while not proc.triggered:
        now += delay
        for other in shards:
            other.sim.run_until(now)
        for other in shards:
            for message in other.drain_outbox():
                shards[message.dst].receive(message)
    return proc.value


def timed(sim, gen):
    """``gen``'s result and its simulated latency."""
    started = sim.now
    result = yield from gen
    return result, sim.now - started


def local_get(shard, key):
    client = shard.cell.connect_client()
    return shard.sim.run(until=shard.sim.process(client.get(key)))


def test_cells_created_per_zone():
    shards = build()
    assert [shard.cell.zone for shard in shards] == ["dc-a", "dc-b"]
    for shard in shards:
        for backend in shard.cell.backends.values():
            assert backend.host.zone == shard.zone
            assert backend.host.name.startswith(f"{shard.zone}/")


def test_local_reads_are_rma_fast():
    shards = build()
    a = shards[0]
    client = a.fed_clients[0]

    def app():
        yield from client.set(b"k", b"v")
        result = yield from client.get(b"k")
        return result

    result = pump(shards, a, app())
    assert result.status is GetStatus.HIT
    assert result.latency < 1e-3           # intra-zone, no WAN
    assert client.stats["local_hits"] == 1


def test_writes_fan_out_to_all_zones():
    shards = build()
    a, b = (shard.fed_clients[0] for shard in shards)
    assert pump(shards, shards[0], a.set(b"k", b"fanout")).status is \
        SetStatus.APPLIED
    result = pump(shards, shards[1], b.get(b"k"))
    assert result.status is GetStatus.HIT
    # dc-b served it locally: no WAN hop needed after the fan-out write.
    assert b.stats["local_hits"] == 1
    assert b.stats["remote_hits"] == 0


def test_remote_fallback_fills_local_cell():
    shards = build()
    a, b = (shard.fed_clients[0] for shard in shards)
    # Write only into dc-a (no fan-out).
    pump(shards, shards[0], a.local.set(b"only-in-a", b"v"))

    def app():
        first = yield from b.get(b"only-in-a")
        second = yield from b.get(b"only-in-a")
        return first, second

    first, second = pump(shards, shards[1], app())
    assert first.status is GetStatus.HIT   # served over WAN
    assert b.stats["remote_hits"] == 1
    assert second.status is GetStatus.HIT  # now local (cache fill)
    assert b.stats["local_hits"] == 1
    # The WAN fetch was far slower than the filled local read.
    assert first.latency > 10 * second.latency


def test_every_federated_op_returns_the_local_result_type_timed_whole():
    """A remote hit is a ``GetResult`` like a local one, and every op's
    ``latency`` is its whole federated time on the shard's clock."""
    shards = build()
    a, b = (shard.fed_clients[0] for shard in shards)
    pump(shards, shards[0], a.local.set(b"only-in-a", b"v"))

    def app():
        remote = yield from timed(shards[1].sim, b.get(b"only-in-a"))
        local = yield from timed(shards[1].sim, b.get(b"only-in-a"))
        miss = yield from timed(shards[1].sim, b.get(b"nowhere"))
        write = yield from timed(shards[1].sim, b.set(b"k", b"w"))
        return remote, local, miss, write

    timings = pump(shards, shards[1], app())
    (remote, _), (local, _), (miss, _), (write, _) = timings
    assert type(remote) is type(local) is type(miss) is GetResult
    assert remote.hit and remote.value == b"v" and local.hit
    assert not miss.hit
    assert remote.latency > 10 * local.latency
    for result, latency in timings:
        assert result.latency == latency
    assert write.status is SetStatus.APPLIED


def test_miss_everywhere_reports_miss():
    shards = build()
    client = shards[0].fed_clients[0]
    result = pump(shards, shards[0], client.get(b"nowhere"))
    assert result.status is GetStatus.MISS
    assert client.stats["misses"] == 1


def test_erase_fans_out():
    shards = build()
    a, b = (shard.fed_clients[0] for shard in shards)

    def app():
        yield from a.set(b"k", b"v")
        yield from a.erase(b"k")

    pump(shards, shards[0], app())
    result = pump(shards, shards[1], b.get(b"k"))
    assert result.status is GetStatus.MISS


def test_three_zone_federation():
    shards = build(zones=("us", "eu", "asia"))
    us, asia = shards[0].fed_clients[0], shards[2].fed_clients[0]
    pump(shards, shards[0], us.set(b"global-key", b"v"))
    result = pump(shards, shards[2], asia.get(b"global-key"))
    assert result.status is GetStatus.HIT
    assert asia.stats["local_hits"] == 1  # fan-out write reached asia


def test_default_wan_delay_still_works():
    """A remote-fallback hit at the default 15ms inter-zone delay. The
    WAN client's deadlines at this delay are checked in test_wan.py."""
    shards = build(inter_zone_delay=15e-3)
    a, b = (shard.fed_clients[0] for shard in shards)
    pump(shards, shards[0], a.local.set(b"k", b"v"))
    result = pump(shards, shards[1], b.get(b"k"))
    assert result.status is GetStatus.HIT
    assert b.stats["remote_hits"] == 1


def test_sharded_wan_erase_leaves_the_key_missing_in_both_zones():
    """A WAN SET and ERASE: the reply carries the remote op's status as
    a client reports it (a :class:`SetStatus`), and a federated erase
    reaches the remote zone's cell."""
    shards = build()
    origin = shards[0]
    fed_client = origin.fed_clients[0]
    key = b"fed-erase"

    def wan(op, *args):
        status, _ = pump(shards, origin, origin.wan_call(1, op, args))
        return status

    assert wan("set", key, b"v") is SetStatus.APPLIED
    assert pump(shards, origin, fed_client.set(key, b"v")).status is \
        SetStatus.APPLIED
    assert all(local_get(shard, key).status is GetStatus.HIT
               for shard in shards)
    assert pump(shards, origin, fed_client.erase(key)).status is \
        SetStatus.APPLIED
    assert all(local_get(shard, key).status is GetStatus.MISS
               for shard in shards)
    assert wan("erase", key) is SetStatus.APPLIED
