"""Unit tests for NIC links, MTU framing, and the fabric delivery model."""

import pytest

from repro.net import Fabric, FabricConfig, Link, MtuConfig, gbps
from repro.sim import Simulator


def make_fabric(rate=gbps(50.0), delay=4e-6, jitter=0.0):
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig(
        host_rate_bytes_per_sec=rate,
        one_way_delay=delay,
        delay_jitter=jitter,
    ))
    return sim, fabric


def test_gbps_conversion():
    assert gbps(8.0) == pytest.approx(1e9)


def test_mtu_wire_bytes_single_frame():
    mtu = MtuConfig(mtu_bytes=5000, header_bytes=66)
    assert mtu.wire_bytes(100) == 166
    assert mtu.frames(100) == 1


def test_mtu_wire_bytes_multi_frame():
    mtu = MtuConfig(mtu_bytes=5000, header_bytes=66)
    assert mtu.frames(12000) == 3
    assert mtu.wire_bytes(12000) == 12000 + 3 * 66


def test_link_serialization_delay():
    sim = Simulator()
    link = Link(sim, rate_bytes_per_sec=1e6)
    done = []

    def proc():
        yield link.transmit(1000)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [pytest.approx(1e-3)]
    assert link.bytes_carried == 1000


def test_link_queues_concurrent_transfers():
    sim = Simulator()
    link = Link(sim, rate_bytes_per_sec=1e6)
    ends = []

    def proc():
        yield link.transmit(1000)
        ends.append(sim.now)

    sim.process(proc())
    sim.process(proc())
    sim.run()
    assert ends == [pytest.approx(1e-3), pytest.approx(2e-3)]


def test_link_rejects_zero_rate():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, rate_bytes_per_sec=0)


def test_deliver_end_to_end_latency():
    sim, fabric = make_fabric(rate=1e9, delay=5e-6)
    a = fabric.add_host("a")
    b = fabric.add_host("b")
    done = []

    def proc():
        yield from fabric.deliver(a, b, 1000)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    wire = fabric.config.mtu.wire_bytes(1000)
    expected = wire / 1e9 + 5e-6 + wire / 1e9
    assert done == [pytest.approx(expected)]


def test_deliver_counts_nic_bytes():
    sim, fabric = make_fabric()
    a = fabric.add_host("a")
    b = fabric.add_host("b")

    def proc():
        yield from fabric.deliver(a, b, 1000)

    sim.process(proc())
    sim.run()
    wire = fabric.config.mtu.wire_bytes(1000)
    assert a.nic.bytes_sent == wire
    assert b.nic.bytes_received == wire
    assert a.nic.bytes_received == 0


def test_loopback_delivery_is_fast():
    sim, fabric = make_fabric()
    a = fabric.add_host("a")
    done = []

    def proc():
        yield from fabric.deliver(a, a, 10 ** 6)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done[0] < 1e-6
    assert a.nic.bytes_sent == 0


def test_duplicate_host_name_rejected():
    _sim, fabric = make_fabric()
    fabric.add_host("a")
    with pytest.raises(ValueError):
        fabric.add_host("a")


def test_incast_delays_concurrent_senders():
    """Many senders converging on one receiver serialize at its ingress."""
    sim, fabric = make_fabric(rate=1e8, delay=1e-6)
    receiver = fabric.add_host("rx")
    senders = [fabric.add_host(f"tx{i}") for i in range(4)]
    ends = []

    def proc(src):
        yield from fabric.deliver(src, receiver, 100_000)
        ends.append(sim.now)

    for src in senders:
        sim.process(proc(src))
    sim.run()
    wire = fabric.config.mtu.wire_bytes(100_000)
    one = wire / 1e8
    # First finishes after ~2 serializations; last queues behind 3 others
    # at the receiver ingress.
    assert min(ends) == pytest.approx(2 * one + 1e-6, rel=0.01)
    assert max(ends) >= 0.99 * (one + 4 * one)


def test_antagonist_consumes_bandwidth():
    sim, fabric = make_fabric(rate=1e8, delay=1e-6)
    victim = fabric.add_host("victim")
    other = fabric.add_host("other")
    fabric.start_antagonist(victim, offered_bytes_per_sec=0.95e8,
                            direction="ingress")
    latencies = []

    def probe():
        # Let the antagonist build up queue first.
        yield sim.timeout(5e-3)
        for _ in range(20):
            start = sim.now
            yield from fabric.deliver(other, victim, 4096)
            latencies.append(sim.now - start)
            yield sim.timeout(1e-4)

    sim.process(probe())
    sim.run(until=0.1)
    wire = fabric.config.mtu.wire_bytes(4096)
    unloaded = 2 * wire / 1e8 + 1e-6
    # Queueing behind antagonist chunks must visibly exceed unloaded latency.
    assert sorted(latencies)[len(latencies) // 2] > 2 * unloaded


def test_antagonist_direction_validated():
    _sim, fabric = make_fabric()
    victim = fabric.add_host("v")
    with pytest.raises(ValueError):
        fabric.start_antagonist(victim, 1e6, direction="sideways")
