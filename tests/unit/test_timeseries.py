"""Unit tests for repro.telemetry.timeseries and the exporters."""

import json

import pytest

from repro.sim import SimulationError, Simulator
from repro.telemetry import (MetricsRegistry, Scraper, Span, TimeSeries,
                             chrome_trace, prometheus_text,
                             write_chrome_trace)


# -- TimeSeries ---------------------------------------------------------------

def _series(points):
    ts = TimeSeries("m", "value", {}, "counter", maxlen=None)
    for t, v in points:
        ts.append(t, v)
    return ts


def test_value_at_is_step_function():
    ts = _series([(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)])
    assert ts.value_at(0.5) is None        # before first sample
    assert ts.value_at(1.0) == 10.0        # inclusive at sample time
    assert ts.value_at(1.7) == 10.0        # holds until the next sample
    assert ts.value_at(2.0) == 20.0
    assert ts.value_at(99.0) == 30.0
    assert ts.latest() == (3.0, 30.0)


def test_value_at_allocation_does_not_scale_with_length():
    # Regression: value_at used to rebuild a full timestamp list per
    # read, making every SLO-window evaluation O(n) in allocations. It
    # must bisect a maintained index instead — allocation per read stays
    # flat no matter how long the series is.
    import tracemalloc

    def read_peak(n):
        ts = _series([(float(i), float(i)) for i in range(n)])
        tracemalloc.start()
        ts.value_at(n / 2)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    small, large = read_peak(100), read_peak(50_000)
    assert large <= small + 512, (small, large)


def test_times_index_survives_ring_buffer_wrap_and_eviction():
    ts = TimeSeries("m", "value", {}, "counter", maxlen=4)
    for i in range(10):
        ts.append(float(i), float(i) * 10)
    assert [t for t, _ in ts.points] == [6.0, 7.0, 8.0, 9.0]
    assert ts.value_at(5.9) is None       # wrapped out of the ring
    assert ts.value_at(7.5) == 70.0
    ts.evict_before(8.0)                  # retention_seconds path
    assert ts.value_at(7.5) is None
    assert ts.value_at(8.0) == 80.0
    assert ts.value_at(99.0) == 90.0
    assert list(ts._times) == [t for t, _ in ts.points]


def test_increase_missing_baseline_reads_as_zero():
    # Counters start at zero, so a window reaching before the first
    # scrape must count everything seen so far, not return 0.
    ts = _series([(1.0, 5.0), (2.0, 8.0)])
    assert ts.increase(window=10.0, at=2.0) == 8.0
    assert ts.increase(window=0.5, at=2.0) == 3.0
    assert ts.increase(window=0.5, at=0.5) == 0.0    # window ends pre-data
    assert _series([]).increase(window=1.0) == 0.0


def test_increase_clamps_negative_deltas_and_defaults_to_latest():
    ts = _series([(1.0, 100.0), (2.0, 3.0)])   # registry reset mid-run
    assert ts.increase(window=1.0, at=2.0) == 0.0
    ts2 = _series([(1.0, 1.0), (2.0, 4.0)])
    assert ts2.increase(window=1.0) == 3.0     # at=None -> latest sample


def test_rate_and_window_validation():
    ts = _series([(0.0, 0.0), (2.0, 10.0)])
    assert ts.rate(window=2.0, at=2.0) == 5.0
    with pytest.raises(ValueError):
        ts.rate(window=0.0)


def test_to_dict_round_trips_through_json():
    ts = _series([(1.0, 2.0)])
    doc = json.loads(json.dumps(ts.to_dict()))
    assert doc == {"name": "m", "field": "value", "labels": {},
                   "kind": "counter", "points": [[1.0, 2.0]]}


# -- Scraper ------------------------------------------------------------------

def _registry():
    reg = MetricsRegistry()
    ops = reg.counter("ops_total", "ops")
    ops.labels(op="get").inc(3)
    ops.labels(op="set").inc(1)
    reg.gauge("pending").labels().set(7)
    reg.histogram("lat").labels(op="get").observe(0.5)
    return reg


def test_scrape_fields_by_kind():
    scraper = Scraper(_registry(), interval=1.0)
    scraper.scrape(1.0)
    (get_ts,) = scraper.series("ops_total", op="get")
    assert get_ts.field == "value" and get_ts.latest() == (1.0, 3.0)
    (gauge_ts,) = scraper.series("pending")
    assert gauge_ts.kind == "gauge" and gauge_ts.latest() == (1.0, 7.0)
    # Histograms sample count only by default (O(1) read)...
    (hist_ts,) = scraper.series("lat")
    assert hist_ts.field == "count" and hist_ts.latest() == (1.0, 1.0)
    assert scraper.series("lat", field="sum") == []
    assert scraper.scrapes == 1 and scraper.last_scrape_at == 1.0


def test_scrape_histogram_sum_opt_in():
    scraper = Scraper(_registry(), histogram_sum=True)
    scraper.scrape(1.0)
    (sum_ts,) = scraper.series("lat", field="sum")
    assert sum_ts.latest() == (1.0, 0.5)


def test_label_subset_filters_and_summed_increase():
    reg = _registry()
    scraper = Scraper(reg)
    scraper.scrape(1.0)
    reg.counter("ops_total").labels(op="get").inc(2)
    scraper.scrape(2.0)
    assert len(scraper.series("ops_total")) == 2
    # increase sums across every series matching the label subset.
    assert scraper.increase("ops_total", window=10.0, at=2.0) == 6.0
    assert scraper.increase("ops_total", window=0.5, at=2.0, op="get") == 2.0
    assert scraper.rate("ops_total", window=0.5, at=2.0, op="get") == 4.0
    with pytest.raises(ValueError):
        scraper.rate("ops_total", window=0.0)


def test_retention_points_ring_buffer():
    reg = _registry()
    scraper = Scraper(reg, retention_points=3)
    for i in range(10):
        scraper.scrape(float(i))
    (ts,) = scraper.series("pending")
    assert [t for t, _ in ts.points] == [7.0, 8.0, 9.0]


def test_retention_seconds_horizon():
    reg = _registry()
    scraper = Scraper(reg, retention_seconds=2.0)
    for i in range(10):
        scraper.scrape(float(i))
    (ts,) = scraper.series("pending")
    assert [t for t, _ in ts.points] == [7.0, 8.0, 9.0]


def test_observer_runs_after_each_scrape():
    scraper = Scraper(_registry())
    seen = []
    scraper.add_observer(lambda t, s: seen.append((t, s.scrapes)))
    scraper.scrape(1.0)
    scraper.scrape(2.0)
    assert seen == [(1.0, 1), (2.0, 2)]


def test_scraper_validation():
    with pytest.raises(ValueError):
        Scraper(MetricsRegistry(), interval=0.0)
    with pytest.raises(ValueError):
        Scraper(MetricsRegistry(), retention_points=1)


def test_scraper_to_dict_is_json_able():
    scraper = Scraper(_registry(), interval=0.5)
    scraper.scrape(1.0)
    doc = json.loads(json.dumps(scraper.to_dict()))
    assert doc["interval"] == 0.5
    assert doc["scrapes"] == 1
    assert doc["last_scrape_at"] == 1.0
    assert {s["name"] for s in doc["series"]} == \
        {"ops_total", "pending", "lat"}


# -- clock-tap wiring ---------------------------------------------------------

def _run_workload(sim, reg, taps=0):
    ops = reg.counter("ops_total").labels()

    def worker():
        for _ in range(20):
            ops.inc()
            yield sim.delay(0.1)

    sim.process(worker())
    sim.run()


def test_install_scrapes_on_cadence():
    sim = Simulator()
    reg = MetricsRegistry()
    scraper = Scraper(reg, interval=0.25)
    scraper.install(sim)
    _run_workload(sim, reg)
    # Workload ends at t=2.0 (20 incs, last sleep completes at 2.0);
    # ticks land at 0.25, 0.5, ..., 2.0.
    assert scraper.scrapes == 8
    (ts,) = scraper.series("ops_total")
    assert ts.value_at(0.25) == 3.0   # ops at t=0, 0.1, 0.2 precede the tick
    assert ts.value_at(2.0) == 20.0


def test_taps_consume_no_scheduling_sequence_numbers():
    """The parity guarantee: a scraped run's event order is identical to
    an unscraped run — taps never touch the scheduling sequence."""
    def run(with_scraper):
        sim = Simulator()
        reg = MetricsRegistry()
        if with_scraper:
            scraper = Scraper(reg, interval=0.05)
            scraper.install(sim)
        _run_workload(sim, reg)
        return sim._seq, sim.now

    assert run(with_scraper=True) == run(with_scraper=False)


def test_double_install_rejected_and_uninstall_stops_scraping():
    sim = Simulator()
    reg = MetricsRegistry()
    scraper = Scraper(reg, interval=0.25)
    scraper.install(sim)
    with pytest.raises(RuntimeError):
        scraper.install(sim)
    scraper.uninstall()
    scraper.uninstall()   # idempotent
    _run_workload(sim, reg)
    assert scraper.scrapes == 0


def test_tap_interval_validated_by_sim():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.add_tap(0.0, lambda t: None)


# -- exporters ----------------------------------------------------------------

def _make_span():
    state = {"now": 0.0}

    def clock():
        return state["now"]

    root = Span("op.get", clock, labels={"key": "k1"})
    state["now"] = 0.25
    child = root.child("index")
    state["now"] = 1.0
    child.finish()
    root.finish()
    return root


def test_chrome_trace_structure():
    root = _make_span()
    doc = chrome_trace([root], process_name="testproc")
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert meta[0]["args"]["name"] == "testproc"
    assert meta[1]["name"] == "thread_name"
    assert "op.get" in meta[1]["args"]["name"]
    by_name = {e["name"]: e for e in spans}
    # Timestamps and durations are in microseconds of simulated time.
    assert by_name["op.get"]["ts"] == 0.0
    assert by_name["op.get"]["dur"] == pytest.approx(1.0 * 1e6)
    assert by_name["index"]["ts"] == pytest.approx(0.25 * 1e6)
    assert by_name["index"]["dur"] == pytest.approx(0.75 * 1e6)
    assert by_name["op.get"]["args"] == {"key": "k1"}
    # All spans of one root share one tid (one track per operation).
    assert {e["tid"] for e in spans} == {1}


def test_chrome_trace_multiple_roots_get_distinct_tracks():
    doc = chrome_trace([_make_span(), _make_span()])
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {e["tid"] for e in spans} == {1, 2}


def test_write_chrome_trace_is_valid_json(tmp_path):
    path = tmp_path / "trace.json"
    count = write_chrome_trace(str(path), [_make_span()])
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) == count
    assert doc["displayTimeUnit"] == "ms"


def test_prometheus_text_counters_and_histograms():
    reg = MetricsRegistry()
    ops = reg.counter("ops_total", "operations by kind")
    ops.labels(op="get").inc(3)
    hist = reg.histogram("lat_seconds", "latency")
    for v in (1.0, 2.0, 3.0):
        hist.labels(op="get").observe(v)
    text = prometheus_text(reg)
    assert "# HELP ops_total operations by kind" in text
    assert "# TYPE ops_total counter" in text
    assert 'ops_total{op="get"} 3.0' in text
    # Histograms expose as summary-style quantiles plus count/sum.
    assert "# TYPE lat_seconds summary" in text
    assert 'lat_seconds{op="get",quantile="0.5"} 2.0' in text
    assert 'lat_seconds_count{op="get"} 3.0' in text
    assert 'lat_seconds_sum{op="get"} 6.0' in text
    assert text.endswith("\n")


def test_prometheus_text_escaping_and_nan():
    reg = MetricsRegistry()
    reg.counter("c", 'help with "quotes"\nand newline').labels(
        path='a"b\\c').inc()
    reg.histogram("h").labels()     # empty histogram -> NaN quantiles
    text = prometheus_text(reg)
    assert r'# HELP c help with \"quotes\"\nand newline' in text
    assert r'c{path="a\"b\\c"} 1.0' in text
    assert 'h{quantile="0.5"} NaN' in text
