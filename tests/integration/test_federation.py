"""Multi-cell federation across datacenters (§1, Table 1 row 5)."""


from repro.core import CellSpec, GetStatus, ReplicationMode, SetStatus
from repro.core.federation import Federation, FederationSpec
from repro.core.parallelfed import ZoneShard, ZoneShardSpec, ZoneWorkloadSpec
from repro.net import FabricConfig


def build(zones=("dc-a", "dc-b"), inter_zone_delay=2e-3):
    spec = FederationSpec(
        zones=list(zones),
        cell_spec=CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                           transport="pony"),
        fabric_config=FabricConfig(inter_zone_delay=inter_zone_delay,
                                   delay_jitter=0.0))
    return Federation(spec)


def connect(federation, zone, **kwargs):
    client = federation.make_client(zone, **kwargs)
    federation.sim.run(until=federation.sim.process(client.connect()))
    return client


def run(federation, gen):
    return federation.sim.run(until=federation.sim.process(gen))


def test_cells_created_per_zone():
    federation = build()
    assert set(federation.cells) == {"dc-a", "dc-b"}
    for zone, cell in federation.cells.items():
        for backend in cell.backends.values():
            assert backend.host.zone == zone
            assert backend.host.name.startswith(f"{zone}/")


def test_local_reads_are_rma_fast():
    federation = build()
    client = connect(federation, "dc-a")

    def app():
        yield from client.set(b"k", b"v")
        result = yield from client.get(b"k")
        return result

    result = run(federation, app())
    assert result.status is GetStatus.HIT
    assert result.latency < 1e-3           # intra-zone, no WAN
    assert client.stats["local_hits"] == 1


def test_writes_fan_out_to_all_zones():
    federation = build()
    a = connect(federation, "dc-a")
    b = connect(federation, "dc-b")

    def app():
        result = yield from a.set(b"k", b"fanout")
        assert result.status is SetStatus.APPLIED
        local = yield from b.get(b"k")
        return local

    result = run(federation, app())
    assert result.status is GetStatus.HIT
    # dc-b served it locally: no WAN hop needed after the fan-out write.
    assert b.stats["local_hits"] == 1
    assert b.stats["remote_hits"] == 0


def test_remote_fallback_fills_local_cell():
    federation = build()
    a = connect(federation, "dc-a", remote_fallback=False)
    b = connect(federation, "dc-b")

    def app():
        # Write only into dc-a (no fan-out from this client).
        yield from a.local.set(b"only-in-a", b"v")
        first = yield from b.get(b"only-in-a")
        second = yield from b.get(b"only-in-a")
        return first, second

    first, second = run(federation, app())
    assert first.status is GetStatus.HIT   # served over WAN
    assert b.stats["remote_hits"] == 1
    assert second.status is GetStatus.HIT  # now local (cache fill)
    assert b.stats["local_hits"] == 1
    # The WAN fetch was far slower than the filled local read.
    assert first.latency > 10 * second.latency


def test_miss_everywhere_reports_miss():
    federation = build()
    client = connect(federation, "dc-a")

    def app():
        return (yield from client.get(b"nowhere"))

    result = run(federation, app())
    assert result.status is GetStatus.MISS
    assert client.stats["misses"] == 1


def test_erase_fans_out():
    federation = build()
    a = connect(federation, "dc-a")
    b = connect(federation, "dc-b")

    def app():
        yield from a.set(b"k", b"v")
        yield from a.erase(b"k")
        result = yield from b.get(b"k")
        return result

    result = run(federation, app())
    assert result.status is GetStatus.MISS


def test_three_zone_federation():
    federation = build(zones=("us", "eu", "asia"))
    us = connect(federation, "us")
    asia = connect(federation, "asia")

    def app():
        yield from us.set(b"global-key", b"v")
        result = yield from asia.get(b"global-key")
        return result

    result = run(federation, app())
    assert result.status is GetStatus.HIT
    assert asia.stats["local_hits"] == 1  # fan-out write reached asia


def test_default_wan_delay_still_works():
    """With the default 15ms inter-zone delay, WAN deadlines must hold."""
    federation = build(inter_zone_delay=15e-3)
    a = connect(federation, "dc-a", remote_fallback=False)
    b = connect(federation, "dc-b")

    def app():
        yield from a.local.set(b"k", b"v")
        result = yield from b.get(b"k")
        return result

    result = run(federation, app())
    assert result.status is GetStatus.HIT
    assert b.stats["remote_hits"] == 1


def test_fabric_events_count_in_the_sending_zones_cell():
    """The zones share one fabric, but each cell's registry counts the
    drops its own zone's hosts sent: a partition inside dc-a is dc-a's."""
    federation = build()
    client = connect(federation, "dc-a", remote_fallback=False)
    cell_a, cell_b = federation.cells["dc-a"], federation.cells["dc-b"]
    federation.fabric.partition(client.local.host,
                                cell_a.backends["backend-0"].host)

    def app():
        for i in range(5):
            yield from client.set(b"k-%d" % i, b"v")
            yield from client.get(b"k-%d" % i)

    run(federation, app())
    dropped = "cliquemap_fabric_dropped_total"
    assert cell_a.metrics.total(dropped, reason="partition") > 0
    assert cell_b.metrics.total(dropped) == 0
    assert dropped not in cell_b.metrics.families()


def test_sharded_wan_erase_leaves_the_key_missing_in_both_zones():
    """The sharded arm's WAN SET and ERASE: two in-process shards pump
    each other's outbox, as the coordinator does at each barrier. The
    proxy reports a mutation's status as the client it stands in for
    does (a :class:`SetStatus`), and a federated erase reaches the
    remote zone's cell."""
    zones = ("dc-a", "dc-b")
    fabric_config = FabricConfig(inter_zone_delay=2e-3, delay_jitter=0.0)
    shards = []
    for index, zone in enumerate(zones):
        shard = ZoneShard(ZoneShardSpec(
            zone=zone, zones=zones,
            cell_spec=CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                               transport="pony"),
            fabric_config=fabric_config,
            workload=ZoneWorkloadSpec(clients=1, shared_keys=1,
                                      private_keys=1)))
        shard.index = index
        shard.build()
        shards.append(shard)
    origin = shards[0]
    fed_client = origin.fed_clients[0]
    proxy = fed_client.remotes["dc-b"]

    def pump(gen):
        proc = origin.sim.process(gen)
        now = max(shard.sim.now for shard in shards)
        while not proc.triggered:
            now += fabric_config.inter_zone_delay
            for shard in shards:
                shard.sim.run(until=now)
            for shard in shards:
                for message in shard.drain_outbox():
                    shards[message.dst].receive(message)
        return proc.value

    def local_get(shard, key):
        client = shard.cell.connect_client()
        return shard.sim.run(until=shard.sim.process(client.get(key)))

    key = b"fed-erase"
    assert pump(proxy.set(key, b"v")).status is SetStatus.APPLIED
    assert pump(fed_client.set(key, b"v")).status is SetStatus.APPLIED
    assert all(local_get(shard, key).status is GetStatus.HIT
               for shard in shards)
    assert pump(fed_client.erase(key)).status is SetStatus.APPLIED
    assert all(local_get(shard, key).status is GetStatus.MISS
               for shard in shards)
    assert pump(proxy.erase(key)).status is SetStatus.APPLIED
