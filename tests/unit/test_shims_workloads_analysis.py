"""Unit tests for language shims, workload generators, and analysis."""

import pytest

from repro.analysis import (CounterSeries, LatencyRecorder, TimeSeries,
                            cdf_points, render_percentile_lines, render_series,
                            render_table)
from repro.core import Cell, CellSpec, ReplicationMode, SetStatus
from repro.shims import PROFILES, NamedPipe, make_shim
from repro.sim import RandomStream, Simulator
from repro.workloads import (AdsScenario, AdsWorkload, GeoScenario,
                             GeoWorkload, KeySpace, LoadGenerator,
                             WorkloadMetrics, ads_batch_sizes,
                             ads_object_sizes, diurnal_rate,
                             geo_batch_sizes, geo_object_sizes, populate)


# -- analysis -----------------------------------------------------------------

def test_latency_recorder_percentiles():
    rec = LatencyRecorder()
    rec.extend([float(i) for i in range(1, 101)])
    assert rec.count == 100
    assert rec.percentile(50) == 50.0
    assert rec.percentile(99) == 99.0
    assert rec.mean() == pytest.approx(50.5)


def test_latency_recorder_empty_is_nan():
    import math
    rec = LatencyRecorder()
    assert math.isnan(rec.mean())
    assert math.isnan(rec.percentile(50))


def test_time_series_bins_and_rates():
    ts = TimeSeries(bin_width=1.0)
    for t in [0.1, 0.5, 1.2, 2.9]:
        ts.record(t, t * 10)
    assert ts.bins() == [0, 1, 2]
    assert ts.counts()[0] == (0.5, 2)
    assert ts.rate_series()[0] == (0.5, 2.0)
    assert ts.series(50)[0][1] in (1.0, 5.0)


def test_counter_series():
    cs = CounterSeries(bin_width=2.0)
    cs.add(0.5, 100)
    cs.add(1.5, 100)
    cs.add(3.0, 50)
    assert cs.total() == 250
    assert cs.per_second()[0] == (1.0, 100.0)


def test_cdf_points_monotone():
    points = cdf_points([5.0, 1.0, 3.0, 2.0, 4.0])
    values = [v for v, _f in points]
    fractions = [f for _v, f in points]
    assert values == sorted(values)
    assert fractions[-1] == 1.0


def test_render_table_and_series_smoke():
    table = render_table("T", ["a", "b"], [[1, 2.5], ["x", 0.001]])
    assert "T" in table and "2.50" in table
    chart = render_series("S", [(1, 10.0), (2, 20.0)])
    assert "#" in chart
    lines = render_percentile_lines("P", [("p50", [(1, 5.0)]),
                                          ("p99", [(1, 9.0)])])
    assert "p99" in lines


# -- shims -----------------------------------------------------------------

def test_named_pipe_costs_latency_and_bandwidth():
    sim = Simulator()
    pipe = NamedPipe(sim, latency=5e-6, bytes_per_sec=1e9)

    def proc():
        yield pipe.transfer(1000)

    sim.run(until=sim.process(proc()))
    assert sim.now == pytest.approx(5e-6 + 1e-6)
    assert pipe.messages == 1


def test_shim_profiles_cover_four_languages():
    assert set(PROFILES) == {"cpp", "java", "go", "py"}
    assert not PROFILES["cpp"].uses_pipes
    assert PROFILES["py"].marshal_cpu > PROFILES["go"].marshal_cpu > \
        PROFILES["java"].marshal_cpu


def test_shim_roundtrip_all_languages():
    for language in PROFILES:
        cell = Cell(CellSpec(mode=ReplicationMode.R1, num_shards=2))
        shim = make_shim(cell.connect_client(), language)

        def app():
            result = yield from shim.set(b"k", b"v")
            assert result.status is SetStatus.APPLIED
            got = yield from shim.get(b"k")
            assert got.hit and got.value == b"v"
            return got

        cell.sim.run(until=cell.sim.process(app()))
        assert shim.ops == 2


def test_shim_latency_ordering_matches_figure6():
    latencies = {}
    for language in PROFILES:
        cell = Cell(CellSpec(mode=ReplicationMode.R1, num_shards=2))
        shim = make_shim(cell.connect_client(), language)

        def app():
            yield from shim.set(b"k", b"v" * 64)
            start = cell.sim.now
            for _ in range(20):
                yield from shim.get(b"k")
            return (cell.sim.now - start) / 20

        latencies[language] = cell.sim.run(until=cell.sim.process(app()))
    assert latencies["cpp"] < latencies["java"] < latencies["go"] < \
        latencies["py"]


def test_shim_charges_cpu_to_shim_component():
    cell = Cell(CellSpec(mode=ReplicationMode.R1, num_shards=2))
    shim = make_shim(cell.connect_client(), "py")

    def app():
        yield from shim.set(b"k", b"v")
        yield from shim.get(b"k")

    cell.sim.run(until=cell.sim.process(app()))
    assert shim.client.host.ledger.seconds("shim:py") > 50e-6


def test_shim_rejects_unknown_language():
    cell = Cell(CellSpec(mode=ReplicationMode.R1, num_shards=2))
    with pytest.raises(ValueError):
        make_shim(cell.connect_client(), "rust")


# -- workload distributions ---------------------------------------------------

def test_object_size_shapes_match_figure10():
    stream = RandomStream(1, "t")
    ads = ads_object_sizes(stream.child("a"))
    geo = geo_object_sizes(stream.child("g"))
    ads_draws = sorted(ads.sample() for _ in range(5000))
    geo_draws = sorted(geo.sample() for _ in range(5000))
    ads_median = ads_draws[2500]
    geo_median = geo_draws[2500]
    # Ads objects are bigger than Geo; both typically a few KB or less.
    assert geo_median < ads_median
    assert ads_median < 5000
    assert geo_median < 1000


def test_batch_size_shapes():
    stream = RandomStream(2, "t")
    ads = ads_batch_sizes(stream.child("a"))
    geo = geo_batch_sizes(stream.child("g"))
    ads_draws = sorted(ads.sample() for _ in range(20000))
    geo_draws = sorted(geo.sample() for _ in range(20000))
    # Ads p99.9 lands in the 30-300 range.
    assert 30 <= ads_draws[int(0.999 * len(ads_draws))] <= 300
    # Geo batches are tens of segments.
    assert 5 <= geo_draws[len(geo_draws) // 2] <= 60


def test_diurnal_rate_swing():
    rate = diurnal_rate(1000.0, amplitude=0.5, period=10.0)
    values = [rate(t / 10) for t in range(105)]
    assert max(values) / min(values) == pytest.approx(3.0, rel=0.05)


# -- generators -----------------------------------------------------------------

def test_keyspace_sampling():
    ks = KeySpace(RandomStream(3, "k"), num_keys=50)
    assert ks.key(0) == b"key-0"
    assert len(ks.all_keys()) == 50
    sample = ks.sample_keys(10)
    assert all(k in set(ks.all_keys()) for k in sample)


def test_keyspace_key_cache_is_bounded_to_the_head():
    ks = KeySpace(RandomStream(3, "k"), num_keys=1_000_000, cache_ranks=8)
    # Tail keys render correctly but never enter the cache.
    for i in (0, 7, 8, 9, 500_000, 999_999):
        assert ks.key(i) == b"key-%d" % i
    for i in (8, 9, 500_000, 999_999):
        ks.key(i)
    assert len(ks._key_cache) <= 8
    # Head keys are cached (same object on repeat renders).
    assert ks.key(3) is ks.key(3)


def test_populate_installs_corpus():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3))
    client = cell.connect_client()
    ks = KeySpace(RandomStream(4, "k"), num_keys=30)
    installed = cell.sim.run(until=cell.sim.process(
        populate(client, ks, 64)))
    assert installed == 30


def test_load_generator_open_loop_offered_rate():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3))
    clients = [cell.connect_client()]
    ks = KeySpace(RandomStream(6, "k"), num_keys=20)
    cell.sim.run(until=cell.sim.process(populate(clients[0], ks, 64)))
    metrics = WorkloadMetrics().with_timeline(bin_width=20e-3)
    gen = LoadGenerator(cell.sim, clients, ks, RandomStream(6, "load"),
                        metrics)
    procs = gen.start_open_loop_gets(rate_per_client=5000.0, duration=0.1)
    cell.sim.run(until=cell.sim.all_of(procs))
    cell.sim.run(until=cell.sim.now + 10e-3)  # drain stragglers
    achieved = metrics.gets / 0.1
    assert achieved == pytest.approx(5000.0, rel=0.35)


def test_ads_workload_smoke():
    workload = AdsWorkload(AdsScenario(num_shards=3, num_clients=2,
                                       num_keys=100,
                                       get_rate_per_client=500.0,
                                       write_rate_per_client=20.0,
                                       backfill_period=0.5,
                                       duration=1.0))
    workload.preload()
    metrics = workload.run()
    assert metrics.gets > 100
    assert metrics.hit_rate > 0.9
    assert metrics.sets > 0
    assert workload.backfill_sets > 0


def test_geo_workload_smoke_diurnal():
    workload = GeoWorkload(GeoScenario(num_shards=3, num_clients=2,
                                       num_updaters=1, num_keys=100,
                                       base_get_rate_per_client=500.0,
                                       day_length=1.0, duration=2.0,
                                       update_rate_per_client=30.0))
    workload.preload()
    metrics = workload.run()
    assert metrics.gets > 200
    rates = [r for _t, r in metrics.get_timeline.rate_series()]
    # Diurnal swing visible in the GET rate timeline.
    assert max(rates) > 1.8 * min(rates)
    assert metrics.sets > 0
