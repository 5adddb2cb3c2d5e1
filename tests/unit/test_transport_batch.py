"""Unit tests for the coalesced multi-entry read op (§7.1).

The batched op's contract, on all three transports:

* correctness — every entry returns the same snapshot bytes a singleton
  read would, aligned with the request list;
* partial failure — a revoked region yields a per-entry error value,
  never discarding sibling entries; a dead host still fails the batch;
* amortization — N entries in one batch cost strictly less engine/NIC
  CPU and less simulated time than N singleton reads;
* transport idioms — 1RMA executes the batch as one command (one window
  slot, one PCIe transaction, one command timestamp).
"""

import pytest

from repro.net import Fabric, FabricConfig, gbps
from repro.sim import Simulator
from repro.transport import (Arena, MemoryRegion, OneRmaTransport,
                             PonyTransport, RdmaTransport,
                             RegionRevokedError, RemoteHostDownError)
from repro.transport.pony import BATCH_ENTRY

ALL_TRANSPORTS = [RdmaTransport, OneRmaTransport, PonyTransport]


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


def write_entries(arena, count, size=16):
    requests, expected = [], []
    for i in range(count):
        payload = bytes([65 + i]) * size
        arena.write(i * 64, payload)
        expected.append(payload)
        requests.append((None, i * 64, size))  # region filled in by caller
    return requests, expected


@pytest.mark.parametrize("transport_cls", ALL_TRANSPORTS)
def test_read_multi_returns_aligned_snapshots(transport_cls):
    sim, _f, client, _s, transport, _e, arena, window = setup_pair(
        transport_cls)
    requests, expected = write_entries(arena, 8)
    requests = [(window.region_id, off, size) for _r, off, size in requests]
    results = drive(sim, transport.read_multi(client, "server", requests))
    assert results == expected
    assert transport.counters.batched_reads == 1
    assert transport.counters.batched_keys == 8
    assert transport.counters.bytes_fetched == 8 * 16


@pytest.mark.parametrize("transport_cls", ALL_TRANSPORTS)
def test_read_multi_empty_batch(transport_cls):
    sim, _f, client, _s, transport, *_ = setup_pair(transport_cls)
    results = drive(sim, transport.read_multi(client, "server", []))
    assert results == []
    assert transport.counters.batched_reads == 0


@pytest.mark.parametrize("transport_cls", ALL_TRANSPORTS)
def test_read_multi_revoked_entry_is_error_value(transport_cls):
    """One revoked region must not discard its siblings' data."""
    sim, _f, client, _s, transport, endpoint, arena, window = setup_pair(
        transport_cls)
    arena.write(0, b"a" * 16)
    arena.write(64, b"b" * 16)
    requests = [(window.region_id, 0, 16),
                (window.region_id + 999, 0, 16),   # unknown region
                (window.region_id, 64, 16)]
    results = drive(sim, transport.read_multi(client, "server", requests))
    assert results[0] == b"a" * 16
    assert isinstance(results[1], RegionRevokedError)
    assert results[2] == b"b" * 16
    assert transport.counters.failures >= 1


@pytest.mark.parametrize("transport_cls", ALL_TRANSPORTS)
def test_read_multi_dead_host_raises(transport_cls):
    sim, _f, client, server, transport, *_ = setup_pair(transport_cls)
    server.crash()
    with pytest.raises(RemoteHostDownError):
        drive(sim, transport.read_multi(client, "server",
                                        [(1, 0, 8), (1, 64, 8)]))


@pytest.mark.parametrize("transport_cls", ALL_TRANSPORTS)
def test_batched_cheaper_than_n_singletons(transport_cls):
    """The amortization claim: batched < N x singleton, CPU and time."""
    n, size = 16, 32
    component = "pony" if transport_cls is PonyTransport else "rma-client"

    # N singleton reads, sequentially.
    sim, _f, client, server, transport, _e, arena, window = setup_pair(
        transport_cls)
    requests, _ = write_entries(arena, n, size)
    requests = [(window.region_id, off, sz) for _r, off, sz in requests]

    def singles():
        for region_id, offset, sz in requests:
            yield from transport.read(client, "server", region_id,
                                      offset, sz)

    start = sim.now
    drive(sim, singles())
    single_elapsed = sim.now - start
    single_cpu = (client.ledger.seconds(component) +
                  server.ledger.seconds(component))

    # The same entries as one coalesced op on a fresh pair.
    sim, _f, client, server, transport, _e, arena, window = setup_pair(
        transport_cls)
    requests, expected = write_entries(arena, n, size)
    requests = [(window.region_id, off, sz) for _r, off, sz in requests]
    start = sim.now
    results = drive(sim, transport.read_multi(client, "server", requests))
    batch_elapsed = sim.now - start
    batch_cpu = (client.ledger.seconds(component) +
                 server.ledger.seconds(component))

    assert results == expected
    assert batch_cpu < single_cpu / 2, (batch_cpu, single_cpu)
    assert batch_elapsed < single_elapsed / 2, (batch_elapsed,
                                                single_elapsed)


def test_onerma_batch_is_one_command():
    """1RMA batches execute as one command: one timestamp, one PCIe txn."""
    sim, _f, client, _s, transport, _e, arena, window = setup_pair(
        OneRmaTransport)
    n = 8
    requests, expected = write_entries(arena, n, 32)
    requests = [(window.region_id, off, sz) for _r, off, sz in requests]
    results = drive(sim, transport.read_multi(client, "server", requests))
    assert results == expected
    assert len(transport.command_timestamps) == 1

    # The batch pays the RTT, the NIC hop, and pcie_base_latency once; a
    # loop of n singletons pays each of them n times.
    _t, batch_latency = transport.command_timestamps[0]
    sim2, _f2, client2, _s2, single, _e2, arena2, window2 = setup_pair(
        OneRmaTransport)
    arena2.write(0, b"y" * 32)
    drive(sim2, single.read(client2, "server", window2.region_id, 0, 32))
    _t2, single_latency = single.command_timestamps[0]
    assert batch_latency < n * single_latency


def test_onerma_batch_takes_one_window_slot():
    sim, _f, client, _s, transport, _e, arena, window = setup_pair(
        OneRmaTransport)
    n = transport.solicitation_window_ops * 2  # > window as singletons
    arena.write(0, b"z" * 8)
    requests = [(window.region_id, 0, 8)] * n
    results = drive(sim, transport.read_multi(client, "server", requests))
    assert results == [b"z" * 8] * n
    # Never queued behind the solicitation window: the whole batch is one
    # solicited command.
    assert transport.counters.batched_reads == 1


def test_pony_batch_single_server_engine_op():
    """The serving engines see one op per batch, not one per entry."""
    sim, _f, client, server, transport, _e, arena, window = setup_pair(
        PonyTransport)
    n = 12
    requests, expected = write_entries(arena, n, 16)
    requests = [(window.region_id, off, sz) for _r, off, sz in requests]
    results = drive(sim, transport.read_multi(client, "server", requests))
    assert results == expected
    server_cpu = server.ledger.seconds("pony")
    # One dispatch plus (n-1) per-entry increments — far below n
    # dispatches.
    ceiling = (transport.cost.server_read +
               BATCH_ENTRY * n +
               transport._payload_cost(16 * n) + 1e-9)
    assert server_cpu <= ceiling
    assert server_cpu < n * transport.cost.server_read
