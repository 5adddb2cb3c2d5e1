"""Experiment-harness utilities for tests, benchmarks, and user studies.

Small helpers that every controlled experiment needs: driving a generator
to completion, preloading keys, issuing measured GET loops, pinning keys
to shards, snapshotting CPU, and the maintenance timeline behind
Figs 13 and 14. Used by this repo's own benchmark suite
(``benchmarks/_common.py``) and exported for downstream experiments.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Sequence, Tuple

from .analysis import CounterSeries, LatencyRecorder, TimeSeries
from .core import (Cell, ClientConfig, CliqueMapClient, GetStatus,
                   GetStrategy, SetStatus)


def drive(cell: Cell, gen: Generator):
    """Run one generator to completion; returns its value."""
    return cell.sim.run(until=cell.sim.process(gen))


def preload_keys(cell: Cell, client: CliqueMapClient,
                 keys: Sequence[bytes], value_bytes: int) -> None:
    """Install ``keys`` with fixed-size values; asserts every SET lands."""

    def setup():
        for key in keys:
            result = yield from client.set(key, bytes(value_bytes))
            assert result.status is SetStatus.APPLIED, (key, result)

    drive(cell, setup())


def measure_gets(cell: Cell, client: CliqueMapClient,
                 keys: Sequence[bytes], count: int,
                 interval: float = 0.0) -> LatencyRecorder:
    """Issue ``count`` sequential GETs round-robin over ``keys``; every
    one must hit. Returns the latency recorder."""
    recorder = LatencyRecorder()

    def loop():
        for i in range(count):
            result = yield from client.get(keys[i % len(keys)])
            assert result.status is GetStatus.HIT, result
            recorder.record(result.latency)
            if interval:
                yield cell.sim.delay(interval)

    drive(cell, loop())
    return recorder


def key_with_primary_shard(cell: Cell, shard: int,
                           prefix: bytes = b"pin") -> bytes:
    """Find a key whose primary replica lands on ``shard`` — lets an
    experiment aim load (or faults) at a specific backend."""
    placement = cell.placement
    for i in range(100000):
        key = prefix + b"-%d" % i
        if placement.primary_shard(placement.key_hash(key)) == shard:
            return key
    raise RuntimeError("no key found for shard")


def total_cpu(*hosts) -> float:
    """Sum of all CPU-seconds charged on the given hosts."""
    return sum(h.ledger.total() for h in hosts)


def cell_cpu_hosts(cell: Cell) -> List:
    """The hosts whose CPU a whole-cell efficiency measurement should sum."""
    return [b.host for b in cell.backends.values()]


#: The maintenance timeline: its keys, bin width (s), load window (s)
#: and the instant its event starts (s after the load does).
TIMELINE_KEYS = 120
TIMELINE_BIN = 0.25
TIMELINE_SECONDS = 3.0
TIMELINE_EVENT_AT = 0.5


def maintenance_timeline(cell: Cell, event: Callable[[], Generator]
                         ) -> Tuple[TimeSeries, CounterSeries,
                                    CounterSeries, Dict[str, int]]:
    """Four touch-free 2xR clients GET ``TIMELINE_KEYS`` keys for
    ``TIMELINE_SECONDS`` (~40K GET/s) while ``event()`` runs from
    ``TIMELINE_EVENT_AT``. Returns the GET latency series, the RPC byte
    and RMA read series, and the GET counts (``total``, ``bad``: not a
    hit, ``degraded``: not a hit or retried)."""
    clients = [cell.connect_client(
        strategy=GetStrategy.TWO_R,
        client_config=ClientConfig(touch_enabled=False))
        for _ in range(4)]
    sim = cell.sim
    preload_keys(cell, clients[0],
                 [b"key-%d" % i for i in range(TIMELINE_KEYS)], 512)
    latency = TimeSeries(bin_width=TIMELINE_BIN)
    rpc_bytes = CounterSeries(bin_width=TIMELINE_BIN)
    rma_reads = CounterSeries(bin_width=TIMELINE_BIN)
    counts = {"total": 0, "bad": 0, "degraded": 0}
    start = sim.now

    def load(client, stride):
        i = stride
        while sim.now - start < TIMELINE_SECONDS:
            result = yield from client.get(b"key-%d" % (i % TIMELINE_KEYS))
            counts["total"] += 1
            latency.record(sim.now - start, result.latency)
            if result.status is not GetStatus.HIT:
                counts["bad"] += 1
            if result.status is not GetStatus.HIT or result.attempts > 1:
                counts["degraded"] += 1
            i += stride
            yield sim.timeout(1e-4)

    # A restarted backend is a fresh object with a fresh RPC server, so
    # every server ever seen is kept and summed: the sum only grows.
    servers = set()

    def totals():
        servers.update(b.rpc_server for b in cell.backends.values())
        return (sum(s.metrics.total_bytes for s in servers),
                cell.transport.counters.reads)

    def sampler():
        last = totals()
        while sim.now - start < TIMELINE_SECONDS:
            yield sim.timeout(TIMELINE_BIN)
            now = totals()
            t = sim.now - start - 1e-3
            rpc_bytes.add(t, now[0] - last[0])
            rma_reads.add(t, now[1] - last[1])
            last = now

    def at_event():
        yield sim.timeout(TIMELINE_EVENT_AT)
        yield from event()

    procs = [sim.process(load(c, 7 + i)) for i, c in enumerate(clients)]
    procs.append(sim.process(sampler()))
    event_proc = sim.process(at_event())
    sim.run(until=sim.all_of(procs))
    sim.run(until=event_proc)
    return latency, rpc_bytes, rma_reads, counts
