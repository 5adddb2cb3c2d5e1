#!/usr/bin/env python3
"""Line census: which lines of ``src/repro`` tier-1 and the examples reach.

    python3 benchmarks/census.py [--out FILE]

No coverage package is installed, so the recorder is ``sys.settrace``
(and ``threading.settrace``, so threads are traced too). The first pass
wraps ``pytest.main`` over ``tests/`` (the tier-1 suite); the second
runs each ``examples/*.py`` with ``runpy`` as ``__main__``.

Executable lines are every line number in ``co_lines()`` of every code
object compiled from each module under ``src/repro``. Line 0 (each
module's ``RESUME``) is not a source line and is left out. A line is
reached when a ``line`` event fires on it, or, for a ``def`` line, the
``call`` event. Worker processes of the sharded executor and tests that
spawn a fresh interpreter are not traced.

Prints, per module, the executable lines and the lines unreached by
tier-1, by the examples and by both, then the totals, and writes the
same numbers plus every unreached line number as JSON (``--out``,
default ``census.json``), so two trees can be diffed. Tracing makes
tier-1 about five times slower: both passes took about 45 minutes on a
2-core box.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import runpy
import sys
import threading
from typing import Callable, Dict, Iterator, List, Set

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")


def executable_lines(path: str) -> Set[int]:
    """Every source line a code object compiled from ``path`` maps to."""
    with open(path, encoding="utf-8") as handle:
        code = compile(handle.read(), path, "exec")
    lines: Set[int] = set()

    def walk(obj) -> None:
        lines.update(line for _start, _end, line in obj.co_lines()
                     if line)
        for const in obj.co_consts:
            if hasattr(const, "co_lines"):
                walk(const)

    walk(code)
    return lines


def modules() -> Iterator[str]:
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                                 recursive=True)):
        yield path


class LineRecorder:
    """Records ``(file, line)`` for every line run under ``src/repro``."""

    def __init__(self) -> None:
        self.hits: Dict[str, Set[int]] = {}
        self._locals: Dict[str, Callable] = {}

    def _local_for(self, filename: str) -> Callable:
        tracer = self._locals.get(filename)
        if tracer is None:
            add = self.hits.setdefault(filename, set()).add

            def tracer(frame, event, _arg):
                if event == "line":
                    add(frame.f_lineno)
                return tracer

            self._locals[filename] = tracer
        return tracer

    def _global(self, frame, _event, _arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PACKAGE):
            return None
        tracer = self._local_for(filename)
        tracer(frame, "line", None)       # the call event: the def line
        return tracer

    def __enter__(self) -> "LineRecorder":
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *_exc) -> None:
        sys.settrace(None)
        threading.settrace(None)


def run_tests() -> Dict[str, Set[int]]:
    import pytest
    with LineRecorder() as recorder:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    print(f"tier-1 exit status {int(status)}", flush=True)
    return recorder.hits


def run_examples() -> Dict[str, Set[int]]:
    # Re-import the package under the recorder, so its module-level
    # lines count for the examples as they do for tier-1.
    for name in [name for name in sys.modules
                 if name == "repro" or name.startswith("repro.")]:
        del sys.modules[name]
    saved_argv = sys.argv
    with LineRecorder() as recorder:
        for path in sorted(glob.glob(os.path.join(ROOT, "examples",
                                                  "*.py"))):
            print(f"example {os.path.basename(path)}", flush=True)
            sys.argv = [path]
            try:
                runpy.run_path(path, run_name="__main__")
            finally:
                sys.argv = saved_argv
    return recorder.hits


def census(tests: Dict[str, Set[int]],
           examples: Dict[str, Set[int]]) -> Dict[str, dict]:
    table: Dict[str, dict] = {}
    for path in modules():
        lines = executable_lines(path)
        unreached_tests = lines - tests.get(path, set())
        unreached_examples = lines - examples.get(path, set())
        table[os.path.relpath(path, PACKAGE)] = {
            "executable": len(lines),
            "unreached_tests": sorted(unreached_tests),
            "unreached_examples": sorted(unreached_examples),
            "unreached_both": sorted(unreached_tests & unreached_examples),
        }
    return table


def report(table: Dict[str, dict]) -> Dict[str, int]:
    keys = ("executable", "unreached_tests", "unreached_examples",
            "unreached_both")
    totals = dict.fromkeys(keys, 0)
    print(f"{'module':40s} {'exec':>6s} {'tier-1':>7s} {'examples':>8s} "
          f"{'both':>6s}")
    for module, row in table.items():
        counts = [row[k] if k == "executable" else len(row[k])
                  for k in keys]
        for key, count in zip(keys, counts):
            totals[key] += count
        print(f"{module:40s} {counts[0]:6d} {counts[1]:7d} {counts[2]:8d} "
              f"{counts[3]:6d}")
    print(f"{'total':40s} {totals['executable']:6d} "
          f"{totals['unreached_tests']:7d} "
          f"{totals['unreached_examples']:8d} "
          f"{totals['unreached_both']:6d}")
    return totals


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="census.json",
                        help="where to write the census as JSON")
    args = parser.parse_args(argv)
    out = os.path.abspath(args.out)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    table = census(run_tests(), run_examples())
    totals = report(table)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"totals": totals, "modules": table}, handle, indent=1,
                  sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
