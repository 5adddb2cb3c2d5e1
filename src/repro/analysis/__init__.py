"""Measurement and reporting utilities for tests and benchmarks."""

from .bench_history import (bench_rows, load_bench_files, perf_history,
                            render_history)
from .dashboard import (BackendSnapshot, CellSnapshot, ClientSnapshot,
                        snapshot_cell)
from .perf import (render_multiget_table, run_kernel_stress,
                   run_multiget_benchmark, run_scale_workload,
                   write_bench_json)
from .parallel import (assert_digest_equivalent, compare_parallel,
                       digest_mismatches, profile_parallel_hotspots,
                       run_federation_arm)
from .population import (PERCENTILES, compare_population,
                         run_population_arm)
from .reporting import (render_alerts, render_metrics,
                        render_percentile_lines, render_series,
                        render_sli, render_soak_report, render_table,
                        render_timeseries, sparkline)
from .stats import (CounterSeries, LatencyRecorder, TimeSeries, cdf_points,
                    ks_distance)
from .stitch import (StitchedTrace, filter_traces, stitch_traces,
                     stitched_chrome_trace, walk_span_dict,
                     write_stitched_chrome_trace, zone_traces_from_digests)

__all__ = [
    "BackendSnapshot", "CellSnapshot", "ClientSnapshot", "snapshot_cell",
    "render_metrics", "render_percentile_lines", "render_series",
    "render_table", "render_alerts", "render_sli", "render_timeseries",
    "render_soak_report", "sparkline",
    "CounterSeries", "LatencyRecorder", "TimeSeries", "cdf_points",
    "ks_distance",
    "run_multiget_benchmark", "render_multiget_table", "write_bench_json",
    "run_kernel_stress", "run_scale_workload",
    "PERCENTILES", "run_population_arm", "compare_population",
    "run_federation_arm", "compare_parallel", "digest_mismatches",
    "assert_digest_equivalent", "profile_parallel_hotspots",
    "StitchedTrace", "walk_span_dict", "zone_traces_from_digests",
    "stitch_traces", "filter_traces", "stitched_chrome_trace",
    "write_stitched_chrome_trace",
    "load_bench_files", "bench_rows", "render_history", "perf_history",
]
