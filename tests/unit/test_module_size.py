"""No module under ``src/repro`` grows past 800 code lines.

A code line is what ``grep -cvE '^\\s*(#|$)'`` counts: every line that
is neither blank nor a comment (docstrings count). A module over the
line is a cue to cut it along a seam of the design.
"""

import pathlib
import re

import repro

MAX_CODE_LINES = 800
_NOT_CODE = re.compile(r"\s*(#|$)")


def code_lines(text: str) -> int:
    return sum(1 for line in text.splitlines() if not _NOT_CODE.match(line))


def test_no_module_over_800_code_lines():
    root = pathlib.Path(repro.__file__).parent
    over = {path.relative_to(root).as_posix(): n
            for path in sorted(root.rglob("*.py"))
            if (n := code_lines(path.read_text())) > MAX_CODE_LINES}
    assert over == {}
