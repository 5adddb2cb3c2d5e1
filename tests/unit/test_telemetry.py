"""Unit tests for repro.telemetry: metrics registry and span tracing."""

import math

import pytest

from repro.analysis import LatencyRecorder
from repro.sim import percentile
from repro.telemetry import (NULL_SPAN, MetricsRegistry, Span, TraceContext,
                             Tracer)
from repro.telemetry.metrics import OVERFLOW_LABEL


# -- registry -----------------------------------------------------------------

def test_counter_series_and_totals():
    reg = MetricsRegistry()
    ops = reg.counter("ops_total", "operations")
    ops.labels(op="get", status="hit").inc()
    ops.labels(op="get", status="hit").inc(2)
    ops.labels(op="get", status="miss").inc()
    ops.labels(op="set", status="applied").inc()
    assert reg.value("ops_total", op="get", status="hit") == 3.0
    assert reg.total("ops_total", op="get") == 4.0
    assert reg.total("ops_total") == 5.0
    # Missing series/labels read as nan / 0 respectively.
    assert math.isnan(reg.value("ops_total", op="erase"))
    assert reg.total("ops_total", op="erase") == 0.0


def test_counter_rejects_negative_and_kind_mismatch():
    reg = MetricsRegistry()
    counter = reg.counter("c").labels()
    with pytest.raises(ValueError):
        counter.inc(-1)
    with pytest.raises(ValueError):
        reg.gauge("c")


def test_gauge_set_add_remove():
    reg = MetricsRegistry()
    pending = reg.gauge("pending")
    pending.labels(client=1).set(5)
    pending.labels(client=1).add(-2)
    assert reg.value("pending", client=1) == 3.0
    assert pending.remove(client=1)
    assert not pending.remove(client=1)
    assert math.isnan(reg.value("pending", client=1))


def test_histogram_percentiles_agree_with_analysis_stats():
    """Registry histograms and LatencyRecorder use the same nearest-rank
    percentile definition (repro.sim.percentile): identical samples must
    report identical numbers."""
    samples = [((i * 37) % 100) / 10.0 for i in range(1, 101)]
    reg = MetricsRegistry()
    hist = reg.histogram("lat").labels(op="get")
    rec = LatencyRecorder()
    for s in samples:
        hist.observe(s)
        rec.record(s)
    for p in (50, 90, 99, 99.9):
        assert hist.percentile(p) == rec.percentile(p)
        assert hist.percentile(p) == percentile(sorted(samples), p)
    assert hist.mean() == pytest.approx(rec.mean())
    assert hist.count == rec.count == 100


def test_histogram_windowed_percentile_and_empty():
    reg = MetricsRegistry()
    hist = reg.histogram("lat").labels()
    assert math.isnan(hist.percentile(50))
    assert math.isnan(hist.mean())
    for v in [1.0, 2.0, 3.0]:
        hist.observe(v)
    checkpoint = hist.count
    for v in [10.0, 20.0, 30.0]:
        hist.observe(v)
    # start= skips samples recorded before the checkpoint.
    assert hist.percentile(50, start=checkpoint) == 20.0
    assert hist.percentile(50) == 3.0
    assert math.isnan(hist.percentile(50, start=hist.count))


def test_label_cardinality_cap_overflows():
    reg = MetricsRegistry(max_series_per_metric=4)
    fam = reg.counter("wide")
    for i in range(10):
        fam.labels(key=i).inc()
    # 4 real series plus one shared overflow series.
    assert fam.series_count == 5
    assert fam.dropped_series == 6
    assert reg.value("wide", **{OVERFLOW_LABEL: "true"}) == 6.0
    # Existing series keep working past the cap.
    fam.labels(key=0).inc()
    assert reg.value("wide", key=0) == 2.0


def test_snapshot_shape():
    reg = MetricsRegistry()
    reg.counter("ops", "help text").labels(op="get").inc()
    reg.histogram("lat").labels(op="get").observe(1.5)
    snap = reg.snapshot()
    assert snap["ops"]["kind"] == "counter"
    assert snap["ops"]["help"] == "help text"
    assert snap["ops"]["series"][0] == {"labels": {"op": "get"},
                                        "value": 1.0}
    hist = snap["lat"]["series"][0]
    assert hist["count"] == 1 and hist["p50"] == 1.5
    assert reg.families() == ["lat", "ops"]


def test_merged_samples_across_series():
    reg = MetricsRegistry()
    fam = reg.histogram("lat")
    fam.labels(op="get", strategy="scar").observe(1.0)
    fam.labels(op="get", strategy="rpc").observe(2.0)
    fam.labels(op="set", strategy="rpc").observe(9.0)
    assert sorted(reg.merged_samples("lat", op="get")) == [1.0, 2.0]
    assert len(reg.histogram_series("lat", op="get")) == 2


# -- spans --------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_nesting_and_durations():
    clock = FakeClock()
    root = Span("get", clock)
    clock.now = 1.0
    child = root.child("index", attempt=1)
    clock.now = 3.0
    grand = child.child("transport.read")
    clock.now = 4.0
    grand.finish()
    child.finish()
    clock.now = 5.0
    root.finish()
    assert root.duration == 5.0
    assert child.start == 1.0 and child.duration == 3.0
    assert grand.duration == 1.0
    assert [(d, s.name) for d, s in root.walk()] == [
        (0, "get"), (1, "index"), (2, "transport.read")]
    assert root.find("transport.read") is grand
    assert root.find_all("index") == [child]
    rendered = root.render()
    assert "index" in rendered and "transport.read" in rendered


def test_span_finish_is_idempotent_and_annotate():
    clock = FakeClock()
    span = Span("op", clock)
    clock.now = 2.0
    span.finish()
    clock.now = 9.0
    span.finish()  # first finish wins
    assert span.end == 2.0
    span.annotate(status="hit")
    assert span.labels["status"] == "hit"
    d = span.to_dict()
    assert d["name"] == "op" and d["duration"] == 2.0


def test_null_span_is_a_sink():
    assert not NULL_SPAN
    assert NULL_SPAN.child("x", a=1) is NULL_SPAN
    assert NULL_SPAN.finish() is NULL_SPAN
    assert NULL_SPAN.find("x") is None
    assert list(NULL_SPAN.walk()) == []
    # The `trace or NULL_SPAN` idiom resolves to the sink for None too.
    assert (None or NULL_SPAN) is NULL_SPAN


def test_tracer_retention_and_disable():
    clock = FakeClock()
    tracer = Tracer(clock, max_retained=3)
    spans = [tracer.start("op", i=i).finish() for i in range(5)]
    for s in spans:
        tracer.record(s)
    assert len(tracer.finished) == 3
    assert tracer.last() is spans[-1]
    assert tracer.started == 5
    off = Tracer(clock, enabled=False)
    assert off.start("op") is NULL_SPAN
    off.record(NULL_SPAN)  # no-op, not retained
    assert off.last() is None


def test_trace_context_delegates_to_root():
    clock = FakeClock()
    root = Span("get", clock)
    ctx = TraceContext(root)
    child = ctx.child("index")
    clock.now = 1.0
    ctx.finish()
    assert root.finished
    assert root.children == [child]
    assert "index" in ctx.render()


# -- histogram reservoir cap --------------------------------------------------

def test_histogram_exact_below_cap():
    reg = MetricsRegistry(histogram_sample_cap=100)
    h = reg.histogram("lat").labels(op="get")
    samples = [float(i) for i in range(100)]
    for v in samples:
        h.observe(v)
    assert not h.saturated
    assert h.count == 100
    assert h.sum == sum(samples)
    assert h.percentile(50) == percentile(samples, 50)
    assert h.values == tuple(samples)


def test_histogram_reservoir_above_cap_keeps_count_and_sum_exact():
    reg = MetricsRegistry(histogram_sample_cap=64)
    h = reg.histogram("lat").labels(op="get")
    n = 10_000
    for i in range(n):
        h.observe(float(i))
    assert h.saturated
    assert h.count == n
    assert h.sum == pytest.approx(sum(range(n)))
    assert h.mean() == pytest.approx((n - 1) / 2, rel=0.0)
    # The reservoir is a uniform sample: bounded size, values from the
    # observed stream, and a roughly central median (loose sanity bound,
    # deterministic because the seed is fixed).
    assert len(h.values) == 64
    assert all(0 <= v < n for v in h.values)
    assert n * 0.2 <= h.percentile(50) <= n * 0.8


def test_histogram_reservoir_is_deterministic_per_series():
    def build():
        reg = MetricsRegistry(histogram_sample_cap=32)
        fam = reg.histogram("lat")
        a, b = fam.labels(op="get"), fam.labels(op="set")
        for i in range(500):
            a.observe(float(i))
            b.observe(float(i))
        return a, b

    a1, b1 = build()
    a2, b2 = build()
    # Identical runs keep identical reservoirs (seeded from family name
    # + labels, not from hash() or global random state)...
    assert a1.values == a2.values
    assert b1.values == b2.values
    # ...while differently-labeled series sample differently.
    assert a1.values != b1.values


def test_histogram_reset_clears_reservoir_state():
    reg = MetricsRegistry(histogram_sample_cap=8)
    h = reg.histogram("lat").labels()
    for i in range(100):
        h.observe(float(i))
    assert h.saturated
    h.reset()
    assert h.count == 0 and not h.saturated
    assert math.isnan(h.mean())
    h.observe(5.0)
    assert h.sum == 5.0 and not h.saturated


def test_histogram_sample_cap_per_family_override():
    reg = MetricsRegistry(histogram_sample_cap=1000)
    small = reg.histogram("small", sample_cap=4).labels()
    large = reg.histogram("large").labels()
    for i in range(10):
        small.observe(float(i))
        large.observe(float(i))
    assert small.saturated and len(small.values) == 4
    assert not large.saturated and len(large.values) == 10
    with pytest.raises(ValueError):
        reg.histogram("bad", sample_cap=0).labels()
