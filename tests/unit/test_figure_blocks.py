"""EXPERIMENTS.md's measured figure blocks and the figure registry name
each other one to one. Checked without running a row: a row run fails
on its own block's text (``benchmarks/bench_figures.py``)."""

import re
import sys
from collections import Counter
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def registry():
    """``figures`` from ``benchmarks/``, without leaving that directory
    on ``sys.path``."""
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import figures
    finally:
        sys.path.remove(str(BENCHMARKS))
    return figures


def test_every_row_has_exactly_one_block_and_every_block_names_a_row():
    figures = registry()
    rows = Counter(row.id for row in figures.ROWS)
    blocks = Counter(row_id for row_id, _body in figures.blocks())
    assert [i for i, n in rows.items() if n > 1] == []
    assert [i for i, n in blocks.items() if n > 1] == []
    assert sorted(rows) == sorted(blocks)


def test_a_block_is_found_by_its_markers():
    figures = registry()
    text = ("<!-- figure fig99 -->\n```text\n== Fig 99 ==\n| a | b |\n```\n"
            "<!-- /figure -->\n")
    assert figures.BLOCK.findall(text) == [
        ("fig99", "== Fig 99 ==\n| a | b |")]


def test_tables_beside_a_block_give_the_paper_side_only():
    """A measured number lives in its block alone: in a section holding
    a block, a hand-written table outside it has a label column and
    columns whose header names the paper, nothing else."""
    figures = registry()
    copied = []
    for section in re.split(r"(?m)^## ",
                            figures.EXPERIMENTS.read_text())[1:]:
        if not figures.BLOCK.search(section):
            continue
        previous = ""
        for line in figures.BLOCK.sub("", section).splitlines():
            if line.startswith("|") and not previous.startswith("|"):
                header = [cell.strip()
                          for cell in line.strip().strip("|").split("|")]
                copied += [(section.splitlines()[0], cell)
                           for cell in header[1:] if "paper" not in cell]
            previous = line
    assert copied == []


def test_no_block_prints_a_negative_number():
    """Every column of a block is a latency, rate, count or share, so a
    negative cell is a counter read going backwards."""
    figures = registry()
    negative = [(row_id, line) for row_id, body in figures.blocks()
                for line in body.splitlines()
                if re.search(r"(?<![\w.-])-\d", line)]
    assert negative == []
