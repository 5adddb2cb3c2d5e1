"""Experiment-harness utilities for tests, benchmarks, and user studies.

Small helpers that every controlled experiment needs: driving a generator
to completion, preloading keys, issuing measured GET loops, pinning keys
to shards, and snapshotting CPU. Used by this repo's own benchmark suite
(``benchmarks/_common.py``) and exported for downstream experiments.
"""

from __future__ import annotations

from typing import Generator, List, Sequence

from .analysis import LatencyRecorder
from .core import Cell, CliqueMapClient, GetStatus, SetStatus


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

