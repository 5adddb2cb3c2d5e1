"""AST guard: nothing under ``src/repro`` iterates a set it just built.

``str`` and ``bytes`` hash differently under every ``PYTHONHASHSEED``, so
the iteration order of a set of task names or key hashes — and every RNG
draw, span id and latency downstream of it — is a property of the
interpreter's launch, not of the model's seed. A ``for`` statement or a
comprehension whose iterable is *syntactically* a set (``set(...)`` /
``frozenset(...)``, a set literal, a set comprehension) is always that
bug or an accident waiting to become it; ``sorted(...)`` around it is the
escape hatch. (Iterating a set held in a variable cannot be seen from the
syntax tree; ``tests/integration/test_hashseed_determinism.py`` runs a
workload slice under two hash seeds for those.)
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


def set_iterations(tree: ast.AST):
    """Line numbers where a ``for`` / comprehension iterates a set
    expression directly."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)) \
                and _is_set_expression(node.iter):
            yield node.iter.lineno


def test_no_loop_iterates_a_freshly_built_set():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in set_iterations(ast.parse(path.read_text()))]
    assert offenders == []


def test_the_guard_sees_every_spelling():
    bad = ast.parse(
        "for a in set(xs): pass\n"
        "for b in frozenset(xs): pass\n"
        "for c in {1, 2}: pass\n"
        "for d in {x for x in xs}: pass\n"
        "ys = [e for e in set(xs)]\n"
        "zs = {f: 1 for f in {x for x in xs}}\n")
    assert sorted(set_iterations(bad)) == [1, 2, 3, 4, 5, 6]
    good = ast.parse(
        "for a in sorted(set(xs)): pass\n"
        "for b in dict.fromkeys(xs): pass\n"
        "if a in set(xs): pass\n")
    assert list(set_iterations(good)) == []
