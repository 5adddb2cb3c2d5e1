"""The paper's evaluation as one table, ``ROWS``. What each row prints
is the body of its EXPERIMENTS.md block: a ``text`` fence between
``<!-- figure <id> -->`` and ``<!-- /figure -->``."""

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from figures import extensions, load, lookups, workloads
from figures.drivers import Row

EXPERIMENTS = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
BLOCK = re.compile(r"<!-- figure (\S+) -->\n```text\n(.*?)\n```\n"
                   r"<!-- /figure -->", re.S)
ROWS = [*workloads.ROWS, *lookups.ROWS, *load.ROWS, *extensions.ROWS]


def blocks():
    """``(row id, body)`` of every block, in file order."""
    return BLOCK.findall(EXPERIMENTS.read_text())


def rewrite_blocks() -> None:
    """Run every row, hold it to its claim, and write what it printed
    into its block."""
    bodies = {}
    for row in ROWS:
        bodies[row.id], facts = row.build()
        row.claim(*facts)
    EXPERIMENTS.write_text(BLOCK.sub(
        lambda m: f"<!-- figure {m[1]} -->\n```text\n{bodies[m[1]]}\n```\n"
                  "<!-- /figure -->", EXPERIMENTS.read_text()))


__all__ = ["Row", "ROWS", "EXPERIMENTS", "blocks", "rewrite_blocks"]
