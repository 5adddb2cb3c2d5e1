"""The paper's evaluation: one run per row of ``figures.ROWS``, which
prints its figure, holds it to the paper's shape, and fails when its
EXPERIMENTS.md block differs from what it printed.

    pytest benchmarks/bench_figures.py --benchmark-only -s -k fig11
    python benchmarks/bench_figures.py    # rewrite every block
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from _common import run_once
from figures import ROWS, blocks, rewrite_blocks


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def bench_figure(benchmark, row):
    text, facts = run_once(benchmark, row.build)
    print()
    print(text)
    row.claim(*facts)
    assert dict(blocks())[row.id] == text, (
        f"EXPERIMENTS.md's {row.id} block is stale: "
        f"python benchmarks/{Path(__file__).name} rewrites it")


if __name__ == "__main__":
    rewrite_blocks()
