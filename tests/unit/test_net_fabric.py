"""Unit tests for NIC links, MTU framing, and the fabric delivery model."""

import random

import pytest

from repro.net import Fabric, FabricConfig, Link, gbps
from repro.net.nic import wire_bytes
from repro.sim import Interrupt, Resource, SimulationError, Simulator


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
    assert wire_bytes(100) == 166


def test_mtu_wire_bytes_multi_frame():
    assert wire_bytes(12000) == 12000 + 3 * 66


def test_link_serialization_delay():
    sim = Simulator()
    link = Link(sim, rate_bytes_per_sec=1e6)
    assert link.reserve(1000) == pytest.approx(1e-3)
    assert link.bytes_carried == 1000


def test_link_queues_concurrent_transfers():
    sim = Simulator()
    link = Link(sim, rate_bytes_per_sec=1e6)
    ends = [link.reserve(1000), link.reserve(1000)]
    assert ends == [pytest.approx(1e-3), pytest.approx(2e-3)]


def test_link_rejects_zero_rate():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, rate_bytes_per_sec=0)


def _completions(rate, transfers):
    """When each ``(start, wire_bytes)`` transfer's last byte leaves: as
    the arithmetic link reserves it, and as the reference -- a FIFO link
    as one ``Resource.hold`` per transfer -- wakes its sender."""
    sim = Simulator()
    link = Link(sim, rate)
    held = Resource(sim, capacity=1)
    reserved = [None] * len(transfers)
    waited = [None] * len(transfers)

    def sender(i, start, wire_bytes):
        yield sim.delay(start)
        reserved[i] = link.reserve(wire_bytes)
        yield held.hold(wire_bytes / rate)
        waited[i] = sim.now

    for i, (start, wire_bytes) in enumerate(transfers):
        sim.process(sender(i, start, wire_bytes))
    sim.run()
    return reserved, waited


@pytest.mark.parametrize("seed", range(4))
def test_arithmetic_link_completes_when_a_held_resource_would(seed):
    """``max(now, free_at) + bytes / rate`` is the float ``Resource.hold``
    computes, whether the transfer found the link idle or queued — also
    when several start at the same instant."""
    rng = random.Random(seed)
    rate = gbps(8.0)
    # Starts on a 25 us grid, so many coincide; ~10 us services load the
    # link to ~60 %: some transfers find it idle, others queue.
    transfers = [(rng.randrange(200) * 25e-6, rng.randint(66, 20_000))
                 for _ in range(300)]
    ends, reference = _completions(rate, transfers)
    assert ends == reference
    assert any(end > start + 2 * size / rate
               for (start, size), end in zip(transfers, ends))


def test_link_counts_bytes_when_it_accepts_them():
    sim = Simulator()
    link = Link(sim, rate_bytes_per_sec=1e6)
    assert link.reserve(1000) == pytest.approx(1e-3)
    assert link.bytes_carried == 1000       # not when the last byte leaves
    assert link.reserve(500) == pytest.approx(1.5e-3)   # queued behind
    assert link.bytes_carried == 1500


def test_an_interrupted_sender_still_occupies_the_link():
    """The NIC sends a frame it has accepted: interrupting a queued sender
    abandons its wait, not its bytes (a queued ``Resource.hold`` was
    skipped instead), so a later transfer still queues behind them."""
    sim = Simulator()
    link = Link(sim, rate_bytes_per_sec=1e6)
    ends = {}

    def sender(name, start=0.0):
        yield sim.delay(start)
        done = link.reserve(1000)
        try:
            yield sim.delay(done - sim.now)
            ends[name] = done
        except Interrupt:
            ends[name] = "interrupted"

    sim.process(sender("first"))
    victim = sim.process(sender("victim"))
    sim.process(sender("last", start=0.5e-3))

    def interrupter():
        yield sim.delay(0.1e-3)
        victim.interrupt()

    sim.process(interrupter())
    sim.run()
    assert ends == {"first": pytest.approx(1e-3), "victim": "interrupted",
                    "last": pytest.approx(3e-3)}
    assert link.bytes_carried == 3000


def test_a_sender_interrupted_in_flight_never_reaches_the_ingress_link():
    sim, fabric = make_fabric(rate=1e8, delay=10e-6)
    a, b, rx = (fabric.add_host(name) for name in ("a", "b", "rx"))
    wire = wire_bytes(100_000)
    outcome = {}

    def send(name, src, start=0.0):
        yield sim.delay(start)
        began = sim.now
        try:
            yield fabric.send(src, rx, 100_000)
            outcome[name] = sim.now - began
        except Interrupt:
            outcome[name] = "interrupted"

    victim = sim.process(send("victim", a))
    # Lands 1 us behind the victim: it would queue for a whole frame time.
    sim.process(send("other", b, start=1e-6))

    def interrupter():
        yield sim.delay(wire / 1e8 + 5e-6)      # mid-propagation
        victim.interrupt()

    sim.process(interrupter())
    sim.run()
    assert outcome == {"victim": "interrupted",
                       "other": pytest.approx(2 * wire / 1e8 + 10e-6)}
    assert a.nic.bytes_sent == wire             # its egress sent the frame
    assert rx.nic.bytes_received == wire        # only the other's bytes


def test_send_is_a_parked_wait():
    _sim, fabric = make_fabric()
    a, b = fabric.add_host("a"), fabric.add_host("b")
    with pytest.raises(SimulationError):
        fabric.send(a, b, 100)      # outside a process: nobody to park


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
    wire = wire_bytes(1000)
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
    wire = wire_bytes(1000)
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
    wire = wire_bytes(100_000)
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
        # Let the antagonist build up queue first, then sample it ~3 chunk
        # times apart: a 95 %-loaded link idles in bursts, and probes
        # closer together all land in one burst or all miss it.
        yield sim.timeout(5e-3)
        for _ in range(20):
            start = sim.now
            yield from fabric.deliver(other, victim, 4096)
            latencies.append(sim.now - start)
            yield sim.timeout(2e-3)

    sim.process(probe())
    sim.run(until=0.2)
    wire = wire_bytes(4096)
    unloaded = 2 * wire / 1e8 + 1e-6
    # Queueing behind antagonist chunks must visibly exceed unloaded latency.
    assert sorted(latencies)[len(latencies) // 2] > 2 * unloaded


def _round_trip_latencies(cross_traffic: bool):
    """50 a->b->a round trips, optionally beside an unrelated c->d flow."""
    sim, fabric = make_fabric(jitter=0.5e-6)
    a, b, c, d = (fabric.add_host(name) for name in "abcd")
    latencies = []

    def flow():
        for _ in range(50):
            start = sim.now
            yield from fabric.deliver(a, b, 512)
            yield from fabric.deliver(b, a, 4096)
            latencies.append(sim.now - start)

    def unrelated():
        for _ in range(80):
            yield from fabric.deliver(c, d, 2048)

    sim.process(flow())
    if cross_traffic:
        sim.process(unrelated())
    sim.run()
    return latencies


def test_one_flows_latency_is_independent_of_unrelated_traffic():
    """Jitter is drawn from the sender's own stream, so traffic on links a
    flow never touches cannot shift its latencies."""
    alone = _round_trip_latencies(cross_traffic=False)
    assert len(set(alone)) > 1      # jitter is on
    assert _round_trip_latencies(cross_traffic=True) == alone


def test_antagonist_direction_validated():
    _sim, fabric = make_fabric()
    victim = fabric.add_host("v")
    with pytest.raises(ValueError):
        fabric.start_antagonist(victim, 1e6, direction="sideways")
