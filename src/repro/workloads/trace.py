"""Trace-driven workloads: record, save, load, and replay op streams.

The paper's production sections (§7.1) are measurements of real traffic;
a downstream user reproducing their own workload wants to feed their own
trace. This module defines a compact line-oriented trace format::

    # time_s op key [size_or_batch]
    0.000125 get topic-42 3
    0.000300 set topic-7 2048
    0.001100 erase topic-9

with a :class:`TraceRecorder` (wraps generators to capture what they
did), file I/O, a synthesizer (build traces from the Ads/Geo
distributions), and a :class:`TraceReplayer` that re-issues the ops
against any cell with the original timing (optionally time-scaled).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Generator, List, Optional, TextIO

from ..analysis import LatencyRecorder
from ..core import CliqueMapClient, GetStatus, SetStatus
from ..sim import RandomStream


@dataclass(frozen=True)
class TraceOp:
    """One operation in a trace."""

    time: float
    op: str            # get | set | erase
    key: bytes
    arg: int = 0       # batch size for gets, value bytes for sets

    def to_line(self) -> str:
        return f"{self.time:.6f} {self.op} {self.key.decode('latin-1')} " \
               f"{self.arg}"

    @classmethod
    def from_line(cls, line: str) -> Optional["TraceOp"]:
        line = line.strip()
        if not line or line.startswith("#"):
            return None
        parts = line.split()
        if len(parts) < 3:
            raise ValueError(f"malformed trace line: {line!r}")
        time, op, key = float(parts[0]), parts[1], parts[2]
        if op not in ("get", "set", "erase"):
            raise ValueError(f"unknown trace op {op!r}")
        arg = int(parts[3]) if len(parts) > 3 else 0
        return cls(time=time, op=op, key=key.encode("latin-1"), arg=arg)


class Trace:
    """An ordered list of :class:`TraceOp` with file round-tripping."""

    def __init__(self, ops: Optional[List[TraceOp]] = None):
        self.ops = ops or []

    def append(self, op: TraceOp) -> None:
        self.ops.append(op)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    @property
    def duration(self) -> float:
        return self.ops[-1].time - self.ops[0].time if self.ops else 0.0

    def dump(self, fp: TextIO) -> None:
        fp.write("# time_s op key arg\n")
        for op in self.ops:
            fp.write(op.to_line() + "\n")

    def dumps(self) -> str:
        buf = io.StringIO()
        self.dump(buf)
        return buf.getvalue()

    @classmethod
    def load(cls, fp: TextIO) -> "Trace":
        ops = []
        for line in fp:
            op = TraceOp.from_line(line)
            if op is not None:
                ops.append(op)
        ops.sort(key=lambda o: o.time)
        return cls(ops)

    @classmethod
    def loads(cls, text: str) -> "Trace":
        return cls.load(io.StringIO(text))


class TraceRecorder:
    """Wraps a client; records every op it forwards."""

    def __init__(self, client: CliqueMapClient):
        self.client = client
        self.trace = Trace()

    def get(self, key: bytes, **kwargs) -> Generator:
        self.trace.append(TraceOp(self.client.sim.now, "get", key, 1))
        return (yield from self.client.get(key, **kwargs))

    def set(self, key: bytes, value: bytes, **kwargs) -> Generator:
        self.trace.append(TraceOp(self.client.sim.now, "set", key,
                                  len(value)))
        return (yield from self.client.set(key, value, **kwargs))

    def erase(self, key: bytes, **kwargs) -> Generator:
        self.trace.append(TraceOp(self.client.sim.now, "erase", key))
        return (yield from self.client.erase(key, **kwargs))


#: Mean arrival rate of a synthesized trace (ops per second).
ARRIVAL_RATE = 10000.0


def synthesize_trace(stream: RandomStream, num_keys: int, ops: int,
                     get_fraction: float = 0.95) -> Trace:
    """Build a synthetic trace with Poisson arrivals and zipf keys; every
    SET writes 512 bytes."""
    from ..sim import ZipfSampler
    from .generators import ZIPF_S
    sampler = ZipfSampler(stream.child("keys"), num_keys, ZIPF_S)
    trace = Trace()
    t = 0.0
    for _ in range(ops):
        t += stream.expovariate(ARRIVAL_RATE)
        key = b"trace-key-%d" % sampler.sample()
        if stream.bernoulli(get_fraction):
            trace.append(TraceOp(t, "get", key, 1))
        else:
            trace.append(TraceOp(t, "set", key, 512))
    return trace


@dataclass
class ReplayReport:
    """What happened when a trace was replayed."""

    gets: int = 0
    hits: int = 0
    sets: int = 0
    erases: int = 0
    errors: int = 0
    get_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    duration: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.gets if self.gets else 0.0


class TraceReplayer:
    """Re-issues a trace against a client with the original timing."""

    def __init__(self, client: CliqueMapClient, trace: Trace,
                 time_scale: float = 1.0):
        self.client = client
        self.trace = trace
        self.time_scale = time_scale
        self.report = ReplayReport()

    def replay(self) -> Generator:
        """Drive the whole trace; returns the :class:`ReplayReport`."""
        sim = self.client.sim
        if not self.trace.ops:
            return self.report
        started = sim.now
        base = self.trace.ops[0].time
        for op in self.trace.ops:
            due = started + (op.time - base) * self.time_scale
            if due > sim.now:
                yield sim.delay(due - sim.now)
            yield from self._issue(op)
        self.report.duration = sim.now - started
        return self.report

    def _issue(self, op: TraceOp) -> Generator:
        report = self.report
        if op.op == "get":
            result = yield from self.client.get(op.key)
            report.gets += 1
            report.get_latency.record(result.latency)
            if result.status is GetStatus.HIT:
                report.hits += 1
            elif result.status is GetStatus.ERROR:
                report.errors += 1
            else:
                # Cache-miss fill, as a real serving stack would do.
                yield from self.client.set(op.key, bytes(max(op.arg, 1) *
                                                         128))
        elif op.op == "set":
            result = yield from self.client.set(op.key, bytes(op.arg))
            report.sets += 1
            if result.status is not SetStatus.APPLIED:
                report.errors += 1
        elif op.op == "erase":
            yield from self.client.erase(op.key)
            report.erases += 1
