"""The DRAM footprint over weeks, the Ads and Geo timelines, and their
object-size CDFs."""

import bisect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from figures.drivers import Row, build_cell, summary, timeline

from repro.analysis import render_table
from repro.core import (BackendConfig, ReplicationMode, SetStatus,
                        VersionNumber)
from repro.net.nic import MTU_BYTES
from repro.sim import RandomStream, percentile
from repro.testing import drive
from repro.workloads import (AdsScenario, AdsWorkload,
                             GeoScenario, GeoWorkload, ads_object_sizes,
                             geo_object_sizes)

# Fig 3: weeks 1-3 report the provision-for-peak footprint, reshaping
# launches in week 4, the corpus shrinks in week 8, and non-disruptive
# restarts downsize backends in week 10.
WEEKS = 13
LAUNCH_WEEK = 4      # reshaping feature rollout
SHRINK_WEEK = 8      # the corpus itself shrinks
RESTART_WEEK = 10    # non-disruptive restarts downsize populated DRAM


def corpus_keys_for_week(week: int) -> int:
    if week < SHRINK_WEEK:
        return 240 + 40 * min(week, 6)   # organic growth
    return 200                            # corpus shrank ~50% from peak


def fig03():
    cell = build_cell(ReplicationMode.R1, 4, name="fig3",
                      backend_config=BackendConfig(
                          data_initial_bytes=256 * 1024,
                          data_virtual_limit=8 << 20,
                          slab_bytes=64 * 1024, grow_watermark=0.75))
    client = cell.connect_client()
    provisioned_peak = sum(
        b.index.total_bytes + b.data.arena.virtual_limit
        for b in cell.serving_backends())
    rows = []
    current_keys = 0

    def week_tick(week):
        nonlocal current_keys
        target = corpus_keys_for_week(week)
        for i in range(current_keys, target):
            result = yield from client.set(b"doc-%d" % i, bytes(3000))
            assert result.status is SetStatus.APPLIED
        for i in range(target, current_keys):
            yield from client.erase(b"doc-%d" % i)
        current_keys = target
        yield cell.sim.timeout(1.0)  # settle async grows
        if week == RESTART_WEEK:
            # Non-disruptive restart per backend: snapshot, restart with a
            # small region, reinstall — the §4.1 downsizing path.
            for shard in range(4):
                task = cell.task_for_shard(shard)
                backend = cell.backend_by_task(task)
                entries = backend.snapshot_entries()
                backend.stop()
                restarted = cell.restart_backend_task(task, shard)
                for key, value, version in entries:
                    yield from restarted._apply_set(
                        key, value, VersionNumber.unpack(version))
            yield from client._refresh_config()

    for week in range(1, WEEKS + 1):
        drive(cell, week_tick(week))
        reported = provisioned_peak if week < LAUNCH_WEEK else \
            cell.total_dram_bytes()
        rows.append([week, current_keys,
                     reported / 1e6, provisioned_peak / 1e6])
    return render_table(
        "Fig 3: DRAM footprint over 13 weeks (MB)",
        ["week", "corpus keys", "DRAM used (MB)",
         "provision-for-peak (MB)"], rows), (rows, provisioned_peak)


def fig03_claim(rows, provisioned_peak):
    footprint = {week: used for week, _k, used, _peak in rows}
    # Reshaping launch drops the footprint well below provision-for-peak.
    assert footprint[LAUNCH_WEEK] < 0.5 * footprint[LAUNCH_WEEK - 1]
    # The corpus shrink + restarts drop DRAM again, with no intervention
    # beyond restarts (paper saw ~50%).
    assert footprint[WEEKS] < 0.7 * footprint[SHRINK_WEEK - 1]
    # Footprint tracks the corpus: still far below peak at the end.
    assert footprint[WEEKS] < 0.3 * (provisioned_peak / 1e6)


def fig08():
    workload = AdsWorkload(AdsScenario(
        num_shards=6, num_clients=4, num_keys=800, get_rate_per_client=2500.0,
        write_rate_per_client=40.0, backfill_period=1.0, duration=4.0))
    workload.preload()
    metrics = workload.run()
    duration = workload.scenario.duration
    get_us = metrics.get_latency.percentile
    return "\n\n".join([
        summary("Fig 8: Ads workload summary", [
            ["GET ops", metrics.gets],
            ["GET/s", f"{metrics.gets / duration:,.0f}"],
            ["SET/s (writes)", f"{metrics.sets / duration:,.0f}"],
            ["SET/s (backfill)",
             f"{workload.backfill_sets / duration:,.0f}"],
            ["hit rate", f"{metrics.hit_rate:.3f}"],
            ["GET p50 (us)", f"{get_us(50) * 1e6:.0f}"],
            ["GET p99.9 (us)", f"{get_us(99.9) * 1e6:.0f}"]]),
        timeline("Fig 8: Ads latency percentiles (us) and rate over time",
                 metrics.get_timeline, (50, 90, 99, 99.9),
                 ("GET/s", metrics.get_timeline.rate_series())),
    ]), (workload, metrics)


def fig08_claim(workload, metrics):
    # Shapes: GETs dominate SETs by >10x; batching-driven incast pushes
    # the p99.9 tail an order of magnitude past the median; the cache
    # serves essentially all lookups.
    total_sets = metrics.sets + workload.backfill_sets
    assert metrics.gets > 10 * total_sets
    assert workload.backfill_sets > 0
    assert metrics.get_latency.percentile(99.9) > \
        5 * metrics.get_latency.percentile(50)
    assert metrics.hit_rate > 0.99
    assert metrics.get_errors == 0


def fig09():
    workload = GeoWorkload(GeoScenario(
        num_shards=6, num_clients=4, num_updaters=2, num_keys=800,
        base_get_rate_per_client=2500.0, day_length=2.0, duration=4.0,
        update_rate_per_client=150.0))
    workload.preload()
    metrics = workload.run()
    series = metrics.get_timeline
    # Trim the partial first/last bins (ramp-in / drain).
    rates = [r for _t, r in series.rate_series()][1:-1]
    p999 = [v * 1e6 for _t, v in series.series(99.9)][1:-1]
    return "\n\n".join([
        summary("Fig 9: Geo workload summary", [
            ["GET ops", metrics.gets],
            ["SET ops", metrics.sets],
            ["peak GET/s", f"{max(rates):,.0f}"],
            ["trough GET/s", f"{min(rates):,.0f}"],
            ["rate swing", f"{max(rates) / max(min(rates), 1e-9):.1f}x"],
            ["p99.9 max (us)", f"{max(p999):.0f}"],
            ["p99.9 min (us)", f"{min(p999):.0f}"],
            ["p99.9 swing", f"{max(p999) / max(min(p999), 1e-9):.1f}x"]]),
        timeline("Fig 9: Geo latency percentiles (us) and rate over time",
                 series, (50, 99, 99.9), ("GET/s", series.rate_series())),
    ]), (metrics, rates, p999)


def fig09_claim(metrics, rates, p999):
    # Shapes: ~3x diurnal GET swing; tail latency swing far smaller than
    # the traffic swing; updates flow continuously.
    assert max(rates) > 2.0 * min(rates)
    assert max(p999) / max(min(p999), 1e-9) < max(rates) / min(rates)
    assert metrics.sets > 100
    assert metrics.get_errors == 0


CHECKPOINT_SIZES = [128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536]


def cdf_at(sorted_samples, size):
    return bisect.bisect_right(sorted_samples, size) / len(sorted_samples)


def fig10():
    stream = RandomStream(13, "fig10")
    ads, geo = (sorted(sizes(stream.child(name)).sample()
                       for _ in range(30000))
                for sizes, name in [(ads_object_sizes, "ads"),
                                    (geo_object_sizes, "geo")])
    return "\n".join([
        render_table("Fig 10: object-size CDFs",
                     ["size (B)", "Ads CDF", "Geo CDF"],
                     [[size, f"{cdf_at(ads, size):.3f}",
                       f"{cdf_at(geo, size):.3f}"]
                      for size in CHECKPOINT_SIZES])] + [
        f"   {name}: p50={percentile(s, 50)}B  p99={percentile(s, 99)}B"
        for name, s in [("Ads", ads), ("Geo", geo)]]), (ads, geo)


def fig10_claim(ads, geo):
    # Geo's CDF sits left of Ads' at every checkpoint (Geo is smaller).
    for size in CHECKPOINT_SIZES:
        assert cdf_at(geo, size) >= cdf_at(ads, size)
    # Typical objects are small: medians of a few KB at most, below MTU.
    assert percentile(ads, 50) < MTU_BYTES
    assert percentile(geo, 50) < 1024
    # But both have a tail of much larger objects.
    assert percentile(ads, 99.9) > 10 * percentile(ads, 50)
    assert percentile(geo, 99.9) > 10 * percentile(geo, 50)


ROWS = [
    Row("fig03", "Fig 3 — DRAM reshaping savings", fig03, fig03_claim),
    Row("fig08", "Fig 8 — Ads workload timeline", fig08, fig08_claim),
    Row("fig09", "Fig 9 — Geo diurnal workload", fig09, fig09_claim),
    Row("fig10", "Fig 10 — object-size CDFs", fig10, fig10_claim),
]
