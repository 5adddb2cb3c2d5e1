"""WAN access via RPC (Table 1, row 5): cross-zone clients."""


from repro.core import (Cell, CellSpec, ClientConfig, GetStatus,
                        GetStrategy, ReplicationMode, SetStatus)
from repro.net import Fabric, FabricConfig
from repro.sim import Simulator


def build(inter_zone_delay=5e-3):
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig(inter_zone_delay=inter_zone_delay,
                                      delay_jitter=0.0))
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"), sim=sim, fabric=fabric)
    return cell


def test_cross_zone_delivery_pays_wan_latency():
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig(inter_zone_delay=5e-3,
                                      delay_jitter=0.0))
    a = fabric.add_host("a", zone="us-east")
    b = fabric.add_host("b", zone="us-west")
    c = fabric.add_host("c", zone="us-east")

    def cross():
        start = sim.now
        yield from fabric.deliver(a, b, 100)
        return sim.now - start

    def local():
        start = sim.now
        yield from fabric.deliver(a, c, 100)
        return sim.now - start

    wan = sim.run(until=sim.process(cross()))
    lan = sim.run(until=sim.process(local()))
    assert wan > 5e-3
    assert lan < 1e-3


def test_wan_client_defaults_to_rpc_strategy():
    cell = build()
    client = cell.connect_client(zone="remote-dc")
    assert client.strategy is GetStrategy.RPC


def test_wan_client_serves_reads_and_writes():
    cell = build()
    local = cell.connect_client()
    remote = cell.connect_client(zone="remote-dc")

    def app():
        yield from local.set(b"k", b"local-write")
        got = yield from remote.get(b"k", deadline=1.0)
        assert got.status is GetStatus.HIT
        assert got.value == b"local-write"
        result = yield from remote.set(b"k2", b"remote-write",
                                       deadline=1.0)
        assert result.status is SetStatus.APPLIED
        back = yield from local.get(b"k2")
        assert back.hit and back.value == b"remote-write"

    cell.sim.run(until=cell.sim.process(app()))


def test_wan_rpc_latency_dominated_by_wan_rtt():
    cell = build(inter_zone_delay=5e-3)
    local = cell.connect_client()
    remote = cell.connect_client(zone="remote-dc")

    def app():
        yield from local.set(b"k", b"v")
        local_got = yield from local.get(b"k")
        remote_got = yield from remote.get(b"k", deadline=1.0)
        return local_got.latency, remote_got.latency

    local_latency, remote_latency = cell.sim.run(
        until=cell.sim.process(app()))
    assert remote_latency > 10e-3  # at least one WAN round trip
    assert remote_latency > 50 * local_latency


def test_rma_refuses_to_cross_zones():
    cell = build()
    local = cell.connect_client()
    # Force an RMA strategy from the remote zone: every attempt fails and
    # the GET errors out rather than silently working.
    remote = cell.connect_client(
        zone="remote-dc", strategy=GetStrategy.TWO_R,
        client_config=ClientConfig(max_retries=3, default_deadline=1.0,
                                   mutation_rpc_deadline=1.0))

    def app():
        yield from local.set(b"k", b"v")
        result = yield from remote.get(b"k", deadline=1.0)
        return result

    result = cell.sim.run(until=cell.sim.process(app()))
    assert result.status is GetStatus.ERROR


def test_wan_mutations_still_reach_quorum():
    cell = build()
    remote = cell.connect_client(
        zone="remote-dc",
        client_config=ClientConfig(mutation_rpc_deadline=1.0,
                                   default_deadline=2.0))

    def app():
        result = yield from remote.set(b"k", b"v", deadline=2.0)
        return result

    result = cell.sim.run(until=cell.sim.process(app()))
    assert result.status is SetStatus.APPLIED
    assert result.replicas_applied == 3
