"""Every option has a setter.

An AST census over ``src/repro``: every field of every option dataclass
(a ``@dataclass`` whose name ends in one of ``OPTION_SUFFIXES``) and
every defaulted keyword of every ``__init__``, classmethod and
module-level factory (``FACTORY``) must be set somewhere -- by keyword
or by position in ``src/``, ``benchmarks/``, ``examples/`` or
``tests/``, or in a ``docs/USAGE.md`` snippet. A value nothing sets is a
module constant at its one value, not an option. ``EXEMPT`` names each
deliberate exception with its reason.

Callees are matched by name (import aliases resolved; a subclass's
construction and its ``super().__init__`` reach the base). A ``**``
splat carries the names its file spells as dict keys or keywords, and a
call forwarding its function's own ``**kwargs`` carries whatever that
function's callers pass. A field is also set by ``replace(..., name=)``
or by assigning ``obj.name`` on anything but ``self``.

    python tests/unit/test_option_census.py

prints every option with its setter count and its first setters.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "examples", "tests")
USAGE = ROOT / "docs" / "USAGE.md"
OPTION_SUFFIXES = ("Config", "Spec", "Policy", "Objective", "Throughput",
                   "Model", "Scenario")
#: Module-level functions that build and return a configured object.
FACTORY = re.compile(r"^(make|build|synthesize|default)_")

#: option -> why it stays although nothing sets it.
EXEMPT = {
    "FabricConfig.seed": "the knob that routing CellSpec.seed into the "
                         "fabric's jitter, loss and antagonist streams "
                         "needs (ROADMAP item 4)",
    "default_objectives.latency_target": "docs/USAGE.md teaches "
                                         "default_objectives's keywords as "
                                         "the way to set SLO targets",
}


class _Option:
    """One settable value: ``owner.name`` reached by ``callees``."""

    def __init__(self, owner: str, name: str, position: Optional[int],
                 callees: Set[str], field: bool) -> None:
        self.owner, self.name, self.position = owner, name, position
        self.callees, self.field = callees, field

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.name}"


def _modules(root: Path) -> Iterator[Tuple[Path, ast.Module]]:
    # One tree at a time: holding every tree alive would make each
    # cyclic-collector pass walk all of them.
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _snippets() -> Iterator[ast.Module]:
    for block in re.findall(r"```python\n(.*?)```", USAGE.read_text(), re.S):
        try:
            yield ast.parse(block)
        except SyntaxError:
            continue


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _base_names(node: ast.ClassDef) -> List[str]:
    return [b.attr if isinstance(b, ast.Attribute) else b.id
            for b in node.bases if isinstance(b, (ast.Name, ast.Attribute))]


def _fields(node: ast.ClassDef) -> List[str]:
    """The dataclass fields ``node`` declares itself."""
    return [stmt.target.id for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and "ClassVar" not in ast.dump(stmt.annotation)]


def _defaulted(fn: ast.FunctionDef, skip_first: bool
               ) -> List[Tuple[str, Optional[int]]]:
    """``(name, position or None)`` for each defaulted parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    offset = 1 if skip_first else 0
    out = [(a.arg, i - offset) for i, a in enumerate(positional)
           if i >= first_default]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def census_options() -> List[_Option]:
    """Every option in ``src/repro`` the census covers."""
    classes: Dict[str, ast.ClassDef] = {}
    functions: List[ast.FunctionDef] = []
    for _, tree in _modules(SRC):
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
            elif isinstance(node, ast.FunctionDef) and \
                    FACTORY.match(node.name):
                functions.append(node)
    subclasses: Dict[str, Set[str]] = defaultdict(set)
    for name, node in classes.items():
        for base in _base_names(node):
            subclasses[base].add(name)

    def family(name: str) -> Set[str]:
        seen, todo = {name}, [name]
        while todo:
            for sub in subclasses[todo.pop()]:
                if sub not in seen:
                    seen.add(sub)
                    todo.append(sub)
        return seen

    def inherited(node: ast.ClassDef) -> int:
        """How many fields ``node``'s dataclass bases declare."""
        return sum(inherited(classes[base]) + len(_fields(classes[base]))
                   for base in _base_names(node)
                   if base in classes and _is_dataclass(classes[base]))

    options: List[_Option] = []
    for name, node in classes.items():
        if _is_dataclass(node) and name.endswith(OPTION_SUFFIXES):
            first = inherited(node)
            for i, field in enumerate(_fields(node)):
                options.append(_Option(name, field, first + i,
                                       family(name), True))
        for stmt in node.body:
            if not isinstance(stmt, ast.FunctionDef):
                continue
            decos = {getattr(d, "id", "") for d in stmt.decorator_list}
            if stmt.name == "__init__":
                callees = family(name)
            elif "classmethod" in decos:
                callees = {stmt.name}
            else:
                continue
            for param, pos in _defaulted(stmt, skip_first=True):
                options.append(_Option(f"{name}.{stmt.name}"
                                       if stmt.name != "__init__" else name,
                                       param, pos, callees, False))
    for fn in functions:
        for param, pos in _defaulted(fn, skip_first=False):
            options.append(_Option(fn.name, param, pos, {fn.name}, False))
    return options


class _Call:
    """One call site: the keywords it names, how many positional
    arguments it passes, and what its ``**`` splat can carry -- the
    names its file spells as a dict key or a keyword, and, when it
    forwards its own function's ``**kwargs``, whatever that function's
    callers pass."""

    __slots__ = ("keywords", "positional", "splat", "forward", "where")

    def __init__(self, keywords: Set[str], positional: int,
                 splat: Set[str], forward: Optional[str],
                 where: str) -> None:
        self.keywords, self.positional, self.splat = \
            keywords, positional, splat
        self.forward, self.where = forward, where


def _collect_calls(tree: ast.Module, calls: Dict[str, List[_Call]],
                   where: str) -> None:
    aliases: Dict[str, str] = {}
    dict_keys: Set[str] = set()     # complete once the walk is done
    scopes: List[ast.AST] = []
    found: List[Tuple[List[str], _Call]] = []
    # A pre-order walk (parents before children), leaner than ast.walk.
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        for name in node._fields:
            value = getattr(node, name, None)
            if type(value) is list:
                stack.extend(v for v in value if isinstance(v, ast.AST))
            elif isinstance(value, ast.AST) and name != "ctx":
                stack.append(value)
        kind = type(node)
        if kind is ast.Call:
            found.append(_call(node, scopes, dict_keys, where))
        elif kind is ast.FunctionDef or kind is ast.ClassDef:
            scopes.append(node)
        elif kind is ast.ImportFrom:
            aliases.update((a.asname, a.name) for a in node.names
                           if a.asname)
        elif kind is ast.Dict:
            dict_keys.update(k.value for k in node.keys
                             if isinstance(k, ast.Constant)
                             and isinstance(k.value, str))
        elif kind is ast.Subscript:
            if isinstance(node.ctx, ast.Store) and \
                    isinstance(node.slice, ast.Constant):
                dict_keys.add(node.slice.value)
        elif kind is ast.Attribute:
            if isinstance(node.ctx, ast.Store) and \
                    getattr(node.value, "id", None) != "self":
                found.append((["<attribute store>"], _Call(
                    {node.attr}, 0, set(), None, f"{where}:{node.lineno}")))
    for names, call in found:
        for name in names:
            calls[aliases.get(name, name)].append(call)


def _enclosing(node: ast.AST, scopes: List[ast.AST], kind: type):
    """The innermost ``kind`` scope around ``node`` (the walk visits
    parents first, so every scope around a call was seen before it)."""
    inner = None
    for scope in scopes:
        if type(scope) is kind and \
                scope.lineno <= node.lineno <= scope.end_lineno and \
                (inner is None or scope.lineno >= inner.lineno):
            inner = scope
    return inner


def _call(node: ast.Call, scopes: List[ast.AST], dict_keys: Set[str],
          where: str) -> Tuple[List[str], _Call]:
    func = node.func
    names: List[str] = []
    if isinstance(func, ast.IfExp):
        names = [getattr(f, "id", "") for f in (func.body, func.orelse)]
    elif isinstance(func, ast.Name):
        names = [func.id]
        if func.id == "cls":
            cls = _enclosing(node, scopes, ast.ClassDef)
            names += [cls.name] if cls is not None else []
    elif isinstance(func, ast.Attribute):
        names = [func.attr]
        if func.attr == "__init__":
            cls = _enclosing(node, scopes, ast.ClassDef)
            names += _base_names(cls) if cls is not None else []
    positional = len(node.args)
    if any(isinstance(a, ast.Starred) for a in node.args):
        positional = 1 << 30
    keywords = {k.arg for k in node.keywords if k.arg is not None}
    dict_keys.update(keywords)
    splats = [k.value for k in node.keywords if k.arg is None]
    forward = None
    if splats:
        fn = _enclosing(node, scopes, ast.FunctionDef)
        if fn is not None and fn.args.kwarg is not None and any(
                getattr(v, "id", None) == fn.args.kwarg.arg for v in splats):
            forward = fn.name
    return names, _Call(keywords, positional,
                        dict_keys if splats else set(), forward,
                        f"{where}:{node.lineno}")


def census_calls() -> Dict[str, List[_Call]]:
    """Callee name -> every call to it in the callers and the snippets."""
    calls: Dict[str, List[_Call]] = defaultdict(list)
    for top in CALLER_DIRS:
        for path, tree in _modules(ROOT / top):
            _collect_calls(tree, calls, str(path.relative_to(ROOT)))
    for tree in _snippets():
        _collect_calls(tree, calls, "docs/USAGE.md")
    return calls


def _carries(call: _Call, name: str, calls: Dict[str, List[_Call]],
             seen: Set[str]) -> bool:
    if name in call.keywords or name in call.splat:
        return True
    if call.forward is None or call.forward in seen:
        return False
    seen = seen | {call.forward}
    return any(_carries(outer, name, calls, seen)
               for outer in calls.get(call.forward, ()))


def setters(option: _Option, calls: Dict[str, List[_Call]]) -> List[str]:
    """Where each call that sets ``option`` is."""
    found = []
    for callee in option.callees:
        for call in calls.get(callee, ()):
            if (option.position is not None
                    and call.positional > option.position) or \
                    _carries(call, option.name, calls, set()):
                found.append(call.where)
    if option.field:
        found += [c.where for name in ("replace", "<attribute store>")
                  for c in calls[name] if option.name in c.keywords]
    return found


@functools.lru_cache(maxsize=None)
def unset_options() -> Tuple[str, ...]:
    calls = census_calls()
    return tuple(sorted(o.label for o in census_options()
                        if not setters(o, calls)))


def test_every_option_has_a_setter():
    unset = [label for label in unset_options() if label not in EXEMPT]
    assert not unset, (
        "nothing sets these; make each a module constant at its one value, "
        "or name it in EXEMPT with a reason:\n  " + "\n  ".join(unset))


def test_every_exemption_is_still_needed():
    unset = set(unset_options())
    stale = sorted(set(EXEMPT) - unset)
    assert not stale, f"these now have a setter or are gone: {stale}"


if __name__ == "__main__":
    calls = census_calls()
    for option in sorted(census_options(), key=lambda o: o.label):
        where = sorted(setters(option, calls),
                       key=lambda w: (w.split(":")[0], int(w.split(":")[1])))
        print(f"{len(where):5d}  {option.label}  {' '.join(where[:3])}")
