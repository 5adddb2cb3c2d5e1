"""Unit tests for RDMA / Pony Express / 1RMA transports."""

import struct

import pytest

from repro.net import Fabric, FabricConfig, gbps
from repro.sim import Simulator
from repro.telemetry import Span
from repro.transport import (Arena, MemoryRegion, OneRmaTransport,
                             PonyScaleConfig, PonyTransport, RdmaTransport,
                             RegionRevokedError, RemoteHostDownError)


def setup_pair(transport_cls, **kwargs):
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig(host_rate_bytes_per_sec=gbps(50.0),
                                      one_way_delay=4e-6, delay_jitter=0.0))
    client = fabric.add_host("client")
    server = fabric.add_host("server")
    transport = transport_cls(sim, fabric, **kwargs)
    endpoint = transport.attach(server)
    transport.attach(client)
    arena = Arena(4096, 65536)
    window = endpoint.expose(MemoryRegion(arena))
    return sim, fabric, client, server, transport, endpoint, arena, window


def drive(sim, gen):
    return sim.run(until=sim.process(gen))


@pytest.mark.parametrize("transport_cls", [RdmaTransport, OneRmaTransport,
                                           PonyTransport])
def test_read_returns_snapshot(transport_cls):
    sim, _f, client, _s, transport, _e, arena, window = setup_pair(
        transport_cls)
    arena.write(100, b"payload!")
    data = drive(sim, transport.read(client, "server", window.region_id,
                                     100, 8))
    assert data == b"payload!"
    assert transport.counters.reads == 1
    assert transport.counters.bytes_fetched == 8


def test_pony_read_costs_exactly_seven_scheduler_entries():
    """Event budget: three engine services, one entry each, plus two
    deliveries of two entries each (arrival, then the sender's wake-up
    once the ingress link has the last byte) — no zero-work hops."""
    sim, _f, client, _s, transport, _e, _arena, window = setup_pair(
        PonyTransport)
    counted = []

    def proc():
        # The first read starts both hosts' engine monitors (a process
        # each, ticking every 200us); the second runs between ticks.
        yield from transport.read(client, "server", window.region_id, 0, 64)
        yield sim.timeout(50e-6)
        before = sim._seq
        yield from transport.read(client, "server", window.region_id, 0, 64)
        counted.append((sim._seq - before, sim.now < 200e-6))

    sim.run(until=sim.process(proc()))
    assert counted == [(7, True)]


@pytest.mark.parametrize("transport_cls", [RdmaTransport, OneRmaTransport,
                                           PonyTransport])
def test_read_revoked_region_fails(transport_cls):
    sim, _f, client, _s, transport, endpoint, _a, window = setup_pair(
        transport_cls)
    endpoint.revoke(window)
    with pytest.raises(RegionRevokedError):
        drive(sim, transport.read(client, "server", window.region_id, 0, 8))
    assert transport.counters.failures == 1


@pytest.mark.parametrize("transport_cls", [RdmaTransport, OneRmaTransport,
                                           PonyTransport])
def test_read_to_dead_host_times_out(transport_cls):
    sim, _f, client, server, transport, *_ = setup_pair(transport_cls)
    server.crash()
    start = sim.now
    with pytest.raises(RemoteHostDownError):
        drive(sim, transport.read(client, "server", 1, 0, 8))
    assert sim.now - start >= transport.op_timeout


def test_rma_read_uses_no_server_cpu():
    sim, _f, client, server, transport, _e, arena, window = setup_pair(
        RdmaTransport)
    arena.write(0, b"x" * 64)
    drive(sim, transport.read(client, "server", window.region_id, 0, 64))
    assert server.ledger.total() == 0.0
    assert client.ledger.seconds("rma-client") > 0


def test_rma_read_much_cheaper_than_rpc_cpu():
    """The core motivation: RMA GETs avoid the >50us RPC framework cost."""
    sim, _f, client, server, transport, _e, arena, window = setup_pair(
        RdmaTransport)
    arena.write(0, b"x" * 64)
    drive(sim, transport.read(client, "server", window.region_id, 0, 64))
    total_cpu = client.ledger.total() + server.ledger.total()
    assert total_cpu < 5e-6  # vs >50e-6 for a Stubby RPC


def test_onerma_records_command_timestamps():
    sim, _f, client, _s, transport, _e, arena, window = setup_pair(
        OneRmaTransport)
    arena.write(0, bytes(256))
    for _ in range(3):
        drive(sim, transport.read(client, "server", window.region_id, 0, 256))
    assert len(transport.command_timestamps) == 3
    for _t, latency in transport.command_timestamps:
        assert 0 < latency < 100e-6


def test_onerma_latency_lower_than_rdma():
    results = {}
    for cls in (RdmaTransport, OneRmaTransport):
        sim, _f, client, _s, transport, _e, arena, window = setup_pair(cls)
        arena.write(0, bytes(64))
        start = sim.now
        drive(sim, transport.read(client, "server", window.region_id, 0, 64))
        results[cls.__name__] = sim.now - start
    assert results["OneRmaTransport"] < results["RdmaTransport"]


def test_pony_read_charges_engine_cpu_both_sides():
    sim, _f, client, server, transport, _e, arena, window = setup_pair(
        PonyTransport)
    arena.write(0, bytes(64))
    drive(sim, transport.read(client, "server", window.region_id, 0, 64))
    assert client.ledger.seconds("pony") > 0
    assert server.ledger.seconds("pony") > 0


def test_pony_scar_hit_returns_bucket_and_data():
    sim, _f, client, _s, transport, endpoint, arena, window = setup_pair(
        PonyTransport)
    # A toy "bucket": 16-byte key-hash + pointer (region, offset, size).
    key_hash = b"H" * 16
    arena.write(256, b"the-data")
    pointer = struct.pack("<qqq", window.region_id, 256, 8)
    arena.write(0, key_hash + pointer)

    def program(bucket_bytes, wanted_hash):
        if bucket_bytes[:16] == wanted_hash:
            region, off, size = struct.unpack("<qqq", bucket_bytes[16:40])
            return (region, off, size)
        return None

    endpoint.install_scar_program(program)
    bucket, data = drive(sim, transport.scar(
        client, "server", window.region_id, 0, 40, key_hash))
    assert bucket[:16] == key_hash
    assert data == b"the-data"
    assert transport.counters.scars == 1


def test_pony_scar_miss_returns_bucket_only():
    sim, _f, client, _s, transport, endpoint, arena, window = setup_pair(
        PonyTransport)
    endpoint.install_scar_program(lambda bucket, kh: None)
    bucket, data = drive(sim, transport.scar(
        client, "server", window.region_id, 0, 40, b"H" * 16))
    assert data is None
    assert len(bucket) == 40


def test_pony_scar_single_round_trip_faster_than_two_reads():
    """SCAR saves a full RTT relative to 2xR for small objects."""
    def run_scar():
        sim, _f, client, _s, transport, endpoint, arena, window = setup_pair(
            PonyTransport)
        key_hash = b"H" * 16
        arena.write(256, b"x" * 64)
        arena.write(0, key_hash + struct.pack("<qqq", window.region_id, 256, 64))
        endpoint.install_scar_program(
            lambda b, kh: struct.unpack("<qqq", b[16:40]))
        start = sim.now
        drive(sim, transport.scar(client, "server", window.region_id, 0, 40,
                                  key_hash))
        return sim.now - start

    def run_two_reads():
        sim, _f, client, _s, transport, _e, arena, window = setup_pair(
            PonyTransport)
        arena.write(0, bytes(40))
        arena.write(256, b"x" * 64)

        def op():
            yield from transport.read(client, "server", window.region_id, 0, 40)
            yield from transport.read(client, "server", window.region_id,
                                      256, 64)

        start = sim.now
        drive(sim, op())
        return sim.now - start

    assert run_scar() < run_two_reads()


def test_pony_message_invokes_handler_with_app_cpu():
    sim, _f, client, server, transport, *_ = setup_pair(PonyTransport)
    seen = []

    def handler(payload):
        seen.append(payload)
        return {"ok": True}, 128

    transport.register_message_handler(server, "lookup", handler)
    response = drive(sim, transport.message(client, "server", "lookup",
                                            64, {"key": "k"}))
    assert response == {"ok": True}
    assert seen == [{"key": "k"}]
    assert server.ledger.seconds("msg-app") > 0
    assert transport.counters.messages == 1


def test_pony_engines_scale_out_under_load():
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig(delay_jitter=0.0))
    client = fabric.add_host("client")
    server = fabric.add_host("server")
    scale = PonyScaleConfig(sample_interval=100e-6, scale_up_threshold=0.7)
    transport = PonyTransport(sim, fabric, scale=scale)
    endpoint = transport.attach(server)
    transport.attach(client)
    arena = Arena(4096, 4096)
    window = endpoint.expose(MemoryRegion(arena))

    def load_loop():
        while sim.now < 20e-3:
            procs = [sim.process(transport.read(
                client, "server", window.region_id, 0, 1024))
                for _ in range(32)]
            yield sim.all_of(procs)

    sim.process(load_loop())
    sim.run(until=20e-3)
    # The client host does tx + rx work per op and is the busier side.
    group = transport.engine_group(client)
    assert group.engine_count > 1
    assert group.engines_at(0.0) == 1


def test_pony_engines_scale_back_down_when_idle():
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig(delay_jitter=0.0))
    client = fabric.add_host("client")
    server = fabric.add_host("server")
    scale = PonyScaleConfig(sample_interval=100e-6)
    transport = PonyTransport(sim, fabric, scale=scale)
    endpoint = transport.attach(server)
    transport.attach(client)
    arena = Arena(4096, 4096)
    window = endpoint.expose(MemoryRegion(arena))

    def burst_then_idle():
        while sim.now < 10e-3:
            procs = [sim.process(transport.read(
                client, "server", window.region_id, 0, 2048))
                for _ in range(32)]
            yield sim.all_of(procs)
        # idle tail: monitor should scale back to base
        yield sim.timeout(5e-3)

    sim.run(until=sim.process(burst_then_idle()))
    group = transport.engine_group(client)
    assert group.engine_count == 1
    assert max(cap for _t, cap in group.scale_history) > 1


def test_onerma_solicitation_window_limits_outstanding():
    """1RMA's congestion control: ops beyond the window queue locally."""
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig(delay_jitter=0.0))
    client = fabric.add_host("client")
    server = fabric.add_host("server")
    transport = OneRmaTransport(sim, fabric, solicitation_window_ops=2)
    endpoint = transport.attach(server)
    arena = Arena(4096, 4096)
    window = endpoint.expose(MemoryRegion(arena))
    completions = []

    def one():
        yield from transport.read(client, "server", window.region_id, 0, 256)
        completions.append(sim.now)

    for _ in range(6):
        sim.process(one())
    sim.run()
    assert len(completions) == 6
    # With a window of 2, the six ops complete in three distinct waves.
    waves = sorted(set(round(t, 9) for t in completions))
    assert len(waves) >= 3


@pytest.mark.parametrize("transport_cls,op", [
    (RdmaTransport, "read"), (PonyTransport, "read"),
    (OneRmaTransport, "read"), (PonyTransport, "scar")])
def test_a_serve_that_raises_closes_its_span_at_the_raise(transport_cls,
                                                          op):
    """A read of a revoked window raises inside the serve stage, after
    ``backend.serve`` opened: the serve closes its span at the raise
    instant itself (it used to be hoisted out of the exchange and then
    clipped by the root)."""
    sim, _f, client, _s, transport, endpoint, _a, window = setup_pair(
        transport_cls)
    if op == "scar":
        endpoint.install_scar_program(lambda bucket, key_hash: None)

    def issue(trace=None):
        if op == "read":
            return transport.read(client, "server", window.region_id, 0, 64,
                                  trace=trace)
        return transport.scar(client, "server", window.region_id, 0, 40,
                              b"H" * 16, trace=trace)

    root = Span("op", lambda: sim.now)
    raised = []

    def proc():
        yield from issue()
        yield sim.timeout(50e-6)
        endpoint.revoke(window)
        with pytest.raises(RegionRevokedError):
            yield from issue(root)
        raised.append(sim.now)
        yield sim.timeout(50e-6)
        root.finish()

    drive(sim, proc())
    serve, = [s for _d, s in root.walk() if s.name == "backend.serve"]
    assert serve.end == raised[0] < root.end
    assert "hoisted_from" not in serve.labels
    assert "clipped_by" not in serve.labels
