"""Unit tests for trace record/replay."""


import pytest

from repro.core import Cell, CellSpec, ReplicationMode
from repro.sim import RandomStream
from repro.workloads import (Trace, TraceOp, TraceRecorder, TraceReplayer,
                             synthesize_trace)


def build_cell():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))
    return cell, cell.connect_client()


def run(cell, gen):
    return cell.sim.run(until=cell.sim.process(gen))


# -- format -----------------------------------------------------------------

def test_trace_op_line_roundtrip():
    op = TraceOp(0.001234, "set", b"topic-7", 2048)
    parsed = TraceOp.from_line(op.to_line())
    assert parsed == op


def test_trace_file_roundtrip():
    trace = Trace([TraceOp(0.0, "get", b"a", 1),
                   TraceOp(0.001, "set", b"b", 512),
                   TraceOp(0.002, "erase", b"a")])
    text = trace.dumps()
    loaded = Trace.loads(text)
    assert loaded.ops == trace.ops
    assert loaded.duration == pytest.approx(0.002)


def test_trace_load_skips_comments_and_blanks():
    text = "# header\n\n0.5 get k 1\n# trailing\n"
    trace = Trace.loads(text)
    assert len(trace) == 1
    assert trace.ops[0].key == b"k"


def test_trace_load_sorts_by_time():
    text = "0.9 get late 1\n0.1 get early 1\n"
    trace = Trace.loads(text)
    assert [op.key for op in trace.ops] == [b"early", b"late"]


def test_malformed_lines_rejected():
    with pytest.raises(ValueError):
        TraceOp.from_line("0.5 get")
    with pytest.raises(ValueError):
        TraceOp.from_line("0.5 frobnicate k 1")


# -- synthesis -----------------------------------------------------------------

def test_synthesize_trace_shape():
    stream = RandomStream(3, "trace")
    trace = synthesize_trace(stream, num_keys=50, ops=500, get_fraction=0.9)
    assert len(trace) == 500
    gets = sum(1 for op in trace if op.op == "get")
    assert 0.8 < gets / 500 < 0.97
    times = [op.time for op in trace]
    assert times == sorted(times)
    assert trace.duration == pytest.approx(500 / 10000.0, rel=0.3)


# -- record/replay --------------------------------------------------------------

def test_recorder_captures_operations():
    cell, client = build_cell()
    recorder = TraceRecorder(client)

    def app():
        yield from recorder.set(b"k", b"v" * 100)
        yield from recorder.get(b"k")
        yield from recorder.erase(b"k")

    run(cell, app())
    ops = [(op.op, op.key) for op in recorder.trace]
    assert ops == [("set", b"k"), ("get", b"k"), ("erase", b"k")]
    assert recorder.trace.ops[0].arg == 100


def test_replay_preserves_relative_timing():
    cell, client = build_cell()
    trace = Trace([TraceOp(0.0, "set", b"a", 64),
                   TraceOp(0.010, "set", b"b", 64),
                   TraceOp(0.020, "get", b"a", 1)])
    replayer = TraceReplayer(client, trace)
    report = run(cell, replayer.replay())
    assert report.duration >= 0.020
    assert report.sets == 2
    assert report.gets == 1
    assert report.hit_rate == 1.0


def test_replay_time_scale_compresses():
    cell, client = build_cell()
    trace = Trace([TraceOp(0.0, "set", b"a", 64),
                   TraceOp(0.100, "get", b"a", 1)])
    replayer = TraceReplayer(client, trace, time_scale=0.1)
    report = run(cell, replayer.replay())
    assert 0.010 <= report.duration < 0.05


def test_replay_fills_misses_when_configured():
    cell, client = build_cell()
    trace = Trace([TraceOp(0.0, "get", b"cold-key", 2)])
    replayer = TraceReplayer(client, trace)
    report = run(cell, replayer.replay())
    assert report.hits == 0

    def check():
        result = yield from client.get(b"cold-key")
        return result.hit

    assert run(cell, check())  # the fill installed it


def test_recorded_trace_replays_on_fresh_cell():
    """The full loop: record against one cell, replay on another."""
    cell_a, client_a = build_cell()
    recorder = TraceRecorder(client_a)

    def workload():
        for i in range(10):
            yield from recorder.set(b"key-%d" % i, b"v" * 64)
        for i in range(30):
            yield from recorder.get(b"key-%d" % (i % 10))

    run(cell_a, workload())
    text = recorder.trace.dumps()

    cell_b, client_b = build_cell()
    replayer = TraceReplayer(client_b, Trace.loads(text))
    report = run(cell_b, replayer.replay())
    assert report.sets == 10
    assert report.gets == 30
    assert report.hit_rate == 1.0
