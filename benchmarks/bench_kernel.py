"""Kernel fast-path benchmark: the live scheduler on a fixed event mix.

Runs the deterministic stress mix (``KERNEL_STRESS_SHAPES`` — weighted
toward zero-delay scheduling to match the measured profile of a real
cell run, which is ~53% zero-delay) on the live ``Simulator``.

Asserts the per-shape event counts against goldens — the mix must stay
the identical load the pre-PR-4 kernel was measured on (2.05x slower at
PR 4, 2.07x at PR 16; that kernel and its ratio are frozen in
EXPERIMENTS.md) — plus a machine-relative regression gate: the live
kernel must stay within 20% of the ``floor_events_per_sec`` the
committed ``BENCH_kernel.json`` records. Rewrites that file so the perf
trajectory records the run.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import run_once

from repro.analysis import run_kernel_stress, write_bench_json
from repro.sim import Simulator

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

# Scheduled actions per shape (63,685 in all): identical on the live
# kernel and on the retired pre-PR-4 one, so a change here is a change
# of load, not speed.
GOLDEN_EVENTS = {"callbacks": 19201, "fanout": 6017, "sleeper": 9617,
                 "storm": 19233, "ticker": 9617}
REGRESSION_SLACK = 0.8  # fail if below 80% of the committed floor


def bench_kernel_fastpath(benchmark):
    result = run_once(benchmark,
                      lambda: run_kernel_stress(Simulator, repeats=3))
    print()
    for name, shape in result["shapes"].items():
        print(f"  {name:<9}  {shape['events']:>6} events"
              f"  {shape['events_per_sec']:>11,.0f}/s")
    print(f"  {'overall':<9}  {result['events']:>6} events"
          f"  {result['events_per_sec']:>11,.0f}/s")

    assert {name: shape["events"]
            for name, shape in result["shapes"].items()} == GOLDEN_EVENTS

    # Machine-relative regression gate against the committed datapoint.
    rate = result["events_per_sec"]
    if OUTPUT.exists():
        floor = json.loads(OUTPUT.read_text()).get("floor_events_per_sec")
        if floor:
            assert rate >= REGRESSION_SLACK * floor, (
                f"kernel events/sec regressed: {rate:,.0f}/s is below "
                f"{REGRESSION_SLACK:.0%} of the recorded floor "
                f"{floor:,.0f}/s")

    write_bench_json({
        "benchmark": "kernel",
        "new": result,
        # Conservative machine-dependent floor: half the measured rate,
        # so ordinary CI jitter passes but a real fast-path regression
        # (losing the ready queue, reintroducing per-action closures)
        # trips the 80% gate above.
        "floor_events_per_sec": rate / 2,
    }, str(OUTPUT))
    print(f"  wrote {OUTPUT.name}")
