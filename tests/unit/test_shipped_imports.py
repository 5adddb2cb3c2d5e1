"""Tier-1 loads what ships: every benchmark and example module imports.

The figure benchmarks run only in CI's newest-interpreter job and the
examples only in its smoke row, so an import they lost (a renamed or
deleted name in ``repro``) would otherwise surface there alone. Each
module is loaded from its file, under a name that is not ``__main__``,
so nothing it guards behind ``if __name__ == "__main__"`` runs. The
loads happen in a fresh interpreter: the modules put their own
directories on ``sys.path`` and register ``_common``, ``layers`` and
``run`` in ``sys.modules``, which must not leak into the rest of the
suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SHIPPED = sorted([*ROOT.glob("benchmarks/**/*.py"),
                  *ROOT.glob("examples/*.py")])

LOADER = """
import importlib.util, json, sys, traceback
failed = {}
for index, path in enumerate(sys.argv[1:]):
    spec = importlib.util.spec_from_file_location(f"shipped_{index}", path)
    try:
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    except Exception:
        failed[path] = traceback.format_exc(limit=-1)
print(json.dumps(failed))
"""


def import_failures(paths):
    """``{path: traceback}`` for each file of ``paths`` that fails to
    import."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", LOADER, *map(str, paths)],
                         env=env, cwd=ROOT, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_every_benchmark_and_example_imports():
    assert any(p.parent.name == "perf" for p in SHIPPED)
    assert any(p.parent.name == "examples" for p in SHIPPED)
    failures = import_failures(SHIPPED)
    assert not failures, "\n".join(
        f"{Path(path).relative_to(ROOT)}:\n{trace}"
        for path, trace in failures.items())
