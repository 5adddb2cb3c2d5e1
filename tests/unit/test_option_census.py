"""Every option has a setter outside the tests, or a named reason.

An AST census over ``src/repro``: every field of every option dataclass
(a ``@dataclass`` whose name ends in one of ``OPTION_SUFFIXES``) and
every defaulted keyword of every ``__init__``, classmethod and
module-level factory (``FACTORY``) must be set somewhere -- by keyword
or by position in ``src/``, ``benchmarks/``, ``examples/`` or
``tests/``, or in a ``docs/USAGE.md`` snippet. A value nothing sets is a
module constant at its one value, not an option. ``EXEMPT`` names each
deliberate exception with its reason.

A value only ``tests/`` sets is a configuration no figure, workload,
example or documented snippet runs. It stays only when its test needs a
non-default value to reach behaviour the production code has, and then
``TEST_ONLY`` names it with that reason.

Callees are matched by name (import aliases resolved; a subclass's
construction and its ``super().__init__`` reach the base). A ``**``
splat carries the names its file spells as dict keys or keywords, and a
call forwarding its function's own ``**kwargs`` carries whatever that
function's callers pass. A field is also set by ``replace(..., name=)``
or by assigning ``obj.name`` on anything but ``self``. When a class
outside the field's own family stores ``self.name`` in its ``__init__``
too, the store may be that class's attribute, so it counts only if
``obj`` is spelled like the option's kind (``config.name = ...`` for a
``*Config``). A setter that
passes the option's default, spelled as its default is, sets nothing.

The same pass finds write-only attributes: a ``self.x = ...`` in an
``__init__`` whose ``x`` nothing in the callers reads, either as ``.x``
or as the string ``"x"`` (a ``getattr``). A ``__slots__`` entry
declares the attribute; it does not read it.

    python tests/unit/test_option_census.py

prints every option with its setter count and its first setters.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import defaultdict
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Optional, Set, Tuple)

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
                         "needs (ROADMAP item 13)",
}

#: option only a test sets -> the behaviour its non-default value reaches.
TEST_ONLY = {
    "AdsScenario.num_shards": "DRIVER_GOLDEN stamps a small Ads cell",
    "AdsScenario.seed": "DRIVER_GOLDEN stamps the Ads driver at a seed of "
                        "its own; a seed is a run input",
    "GeoScenario.num_shards": "DRIVER_GOLDEN stamps a small Geo cell",
    "GeoScenario.num_updaters": "DRIVER_GOLDEN stamps a small Geo cell",
    "GeoScenario.seed": "DRIVER_GOLDEN stamps the Geo driver at a seed of "
                        "its own; a seed is a run input",
    "AutoscalerConfig.cooldown": "the closed loop's grow and shrink fit "
                                 "in a 1.8 s run",
    "AutoscalerConfig.max_shards": "caps the closed loop's grow",
    "AutoscalerConfig.scale_in_rps": "a watermark the closed loop's idle "
                                     "window falls under",
    "AutoscalerConfig.scale_out_rps": "a watermark the closed loop's small "
                                      "load crosses",
    "BackendConfig.ways": "a one- or two-way bucket spills into the "
                          "overflow table",
    "ArcPolicy.capacity": "ARC's ghost-list bound and its adaptation of p "
                          "with tens of keys, not 10,000",
    "ClientConfig.compression_enabled": "the compression path (§9): off "
                                        "is the corpus convention",
    "ClientConfig.overflow_rpc_lookup": "test_lookup_settle's row where the "
                                        "ballot's overflow branch settles "
                                        "without the RPC",
    "ClientConfig.retry_backoff": "the deadline hot-spin regression needs a "
                                  "backoff near the deadline",
    "ClientConfig.retry_backoff_cap": "the deadline hot-spin regression "
                                      "needs a 2 ms floor, so the cap too",
    "ClientConfig.retry_budget_capacity": "a dry retry budget sheds "
                                          "retries",
    "ClientConfig.retry_budget_fill_rate": "a budget that never refills "
                                           "stays dry",
    "FabricConfig.delay_jitter": "a jitter-free fabric gives the exact "
                                 "instants the arithmetic tests assert",
    "FabricConfig.host_rate_bytes_per_sec": "serialization arithmetic at "
                                            "rates whose delays are exact",
    "FabricConfig.one_way_delay": "propagation arithmetic at delays whose "
                                  "sums are exact",
    "FlightRecorder.capacity": "a small ring reaches wrap-around and "
                               "eviction",
    "MemcacheGCluster.config": "carries the baseline's small capacity",
    "MemcacheGCluster.num_shards": "a one-shard cluster puts every key on "
                                   "one server",
    "MemcacheGConfig.capacity_bytes": "the baseline's LRU eviction with a "
                                      "few keys",
    "MetricsRegistry.histogram_sample_cap": "a small reservoir saturates "
                                            "in hundreds of samples",
    "MetricsRegistry.max_series_per_metric": "the label-cardinality "
                                             "overflow series with ten "
                                             "labels",
    "MissPolicy.backfill_budget": "a budget of a token or two goes dry",
    "MissPolicy.backfill_fill_rate": "a budget that never refills stays dry",
    "MissPolicy.dirty_buffer_max": "a one- or two-key dirty buffer fills "
                                   "and degrades to write-through",
    "MissPolicy.fetch_deadline": "a fetch from a crashed SoR gives up "
                                 "inside the test's step",
    "MissPolicy.fetch_retries": "a fetch from a crashed SoR gives up "
                                "after one try",
    "MissPolicy.negative_ttl": "a negative entry expires inside the test",
    "OneRmaTransport.solicitation_window_ops": "a one- or two-op window "
                                               "queues solicitations",
    "ProvisionedThroughput.burst_seconds": "a one-token bucket puts the "
                                           "throttle on a named verb",
    "ResizeConfig.max_sweeps": "a three-sweep limit reaches the handoff "
                               "abort; test_handoff_plane freezes the fast "
                               "pacing",
    "ResizeConfig.drain_grace": "test_handoff_plane freezes the fast "
                                "pacing's RPC log",
    "ResizeConfig.sweep_interval": "test_handoff_plane freezes the fast "
                                   "pacing's RPC log",
    "RpcServer.acl": "the ACL rejection path",
    "RpcServer.max_version": "the protocol-version rejection path",
    "RpcServer.min_version": "the protocol-version rejection path",
    "Scraper.retention_points": "a three-point ring reaches eviction in "
                                "ten scrapes",
    "SoakConfig.resize_config": "fast pacing fits a resize cycle into a "
                                "1.6 s soak",
    "Tracer.max_retained": "a small retention evicts the oldest traces",
    "ZipfSampler.head": "a small head reaches the sampler's tail regime",
    "ZoneWorkloadSpec.fanout_every": "fan-out SETs often enough to show "
                                     "in a 0.1 s federation run",
    "ZoneWorkloadSpec.population_drivers": "two drivers keep the "
                                           "one-zone equivalence run small",
    "ZoneWorkloadSpec.think_mean": "a 100 µs think time sends a remote op "
                                   "inside the too-large lookahead",
    "ZoneWorkloadSpec.remote_every": "remote GETs often enough to stitch a "
                                     "cross-zone trace in 0.08 s",
}

#: ``Class.attr`` stored in an ``__init__`` and read nowhere -> why it
#: stays.
WRITE_ONLY = {}


class _Option:
    """One settable value: ``owner.name`` reached by ``callees``;
    ``default`` is the comparable form of its default (None: none)."""

    def __init__(self, owner: str, name: str, position: Optional[int],
                 callees: Set[str], field: bool,
                 default: Optional[str]) -> None:
        self.owner, self.name, self.position = owner, name, position
        self.callees, self.field, self.default = callees, field, default

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.name}"


def _value(node: ast.expr) -> str:
    """A comparable form of an argument or a default: its literal value,
    else its expression."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError, SyntaxError):
        return ast.dump(node)


def _modules(root: Path) -> Iterator[Tuple[str, ast.Module]]:
    # One tree at a time: holding every tree alive would make each
    # cyclic-collector pass walk all of them.
    for path in sorted(root.rglob("*.py")):
        yield (str(path.relative_to(ROOT)),
               ast.parse(path.read_text(), str(path)))


def _snippets() -> Iterator[Tuple[str, ast.Module]]:
    for block in re.findall(r"```python\n(.*?)```", USAGE.read_text(), re.S):
        try:
            yield "docs/USAGE.md", ast.parse(block)
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


def _fields(node: ast.ClassDef) -> List[Tuple[str, Optional[str]]]:
    """``(field, default)`` for each dataclass field ``node`` declares
    itself."""
    out = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name) and \
                "ClassVar" not in ast.dump(stmt.annotation):
            default = stmt.value
            if isinstance(default, ast.Call) and \
                    getattr(default.func, "id", "") == "field":
                default = next((k.value for k in default.keywords
                                if k.arg == "default"), None)
            out.append((stmt.target.id,
                        None if default is None else _value(default)))
    return out


def _defaulted(fn: ast.FunctionDef, skip_first: bool
               ) -> List[Tuple[str, Optional[int], str]]:
    """``(name, position or None, default)`` for each defaulted
    parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    offset = 1 if skip_first else 0
    out = [(a.arg, i - offset, _value(args.defaults[i - first_default]))
           for i, a in enumerate(positional) if i >= first_default]
    out += [(a.arg, None, _value(d))
            for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _self_stores(fn: ast.FunctionDef) -> Iterator[ast.Attribute]:
    """Every ``self.x`` an assignment in ``fn`` stores."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for item in (target.elts if isinstance(target, ast.Tuple)
                         else [target]):
                if isinstance(item, ast.Attribute) and \
                        getattr(item.value, "id", None) == "self":
                    yield item


class _Source:
    """What the census needs from ``src/repro``: its options, and each
    attribute an ``__init__`` stores with where and in which class."""

    def __init__(self, modules: Iterable[Tuple[str, ast.Module]]) -> None:
        classes: Dict[str, ast.ClassDef] = {}
        functions: List[ast.FunctionDef] = []
        #: (class, attribute, where) per ``self.x = ...`` in an __init__.
        self.init_stores: List[Tuple[str, str, str]] = []
        for where, tree in modules:
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    classes[node.name] = node
                elif isinstance(node, ast.FunctionDef) and \
                        FACTORY.match(node.name):
                    functions.append(node)
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    for stmt in node.body:
                        if isinstance(stmt, ast.FunctionDef) and \
                                stmt.name == "__init__":
                            self.init_stores += [
                                (node.name, item.attr,
                                 f"{where}:{item.lineno}")
                                for item in _self_stores(stmt)]
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

        self.options: List[_Option] = []
        for name, node in classes.items():
            if _is_dataclass(node) and name.endswith(OPTION_SUFFIXES):
                first = inherited(node)
                for i, (field, default) in enumerate(_fields(node)):
                    self.options.append(_Option(
                        name, field, first + i, family(name), True, default))
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
                for param, pos, default in _defaulted(stmt, skip_first=True):
                    self.options.append(_Option(
                        f"{name}.{stmt.name}" if stmt.name != "__init__"
                        else name, param, pos, callees, False, default))
        for fn in functions:
            for param, pos, default in _defaulted(fn, skip_first=False):
                self.options.append(_Option(fn.name, param, pos, {fn.name},
                                            False, default))


class _Call:
    """One call site: the value of each keyword it names, the values of
    its positional arguments before any ``*`` splat (``starred``: one
    follows, so any later position may be set), and what its
    ``**`` splat can carry -- the names its file spells as a dict key or
    a keyword, and, when it forwards its own function's ``**kwargs``,
    whatever that function's callers pass."""

    __slots__ = ("keywords", "positional", "starred", "splat", "forward",
                 "where", "receiver")

    def __init__(self, keywords: Dict[str, str], positional: List[str],
                 splat: Set[str], forward: Optional[str], where: str,
                 starred: bool = False) -> None:
        self.keywords, self.positional, self.splat = \
            keywords, positional, splat
        self.forward, self.where, self.starred = forward, where, starred
        #: For an attribute store, the spelling of what it stores into.
        self.receiver = ""


class _Callers:
    """Every call in the callers by callee name, and every attribute
    name they read."""

    def __init__(self, modules: Iterable[Tuple[str, ast.Module]]) -> None:
        self.calls: Dict[str, List[_Call]] = defaultdict(list)
        self.reads: Set[str] = set()
        for where, tree in modules:
            self._collect(tree, where)

    def _collect(self, tree: ast.Module, where: str) -> None:
        aliases: Dict[str, str] = {}
        dict_keys: Set[str] = set()     # complete once the walk is done
        scopes: List[ast.AST] = []
        found: List[Tuple[List[str], _Call]] = []
        #: id of an assignment's target -> the value assigned to it.
        assigned: Dict[int, str] = {}
        #: ids of the strings a ``__slots__`` declares: not reads.
        slots: Set[int] = set()
        reads = self.reads
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
            elif kind is ast.Constant:
                if type(node.value) is str and id(node) not in slots:
                    reads.add(node.value)
            elif kind is ast.Subscript:
                if isinstance(node.ctx, ast.Store) and \
                        isinstance(node.slice, ast.Constant):
                    dict_keys.add(node.slice.value)
            elif kind is ast.Assign:
                assigned.update((id(t), _value(node.value))
                                for t in node.targets)
                if any(getattr(t, "id", None) == "__slots__"
                       for t in node.targets):
                    slots.update(id(c) for c in ast.walk(node.value))
            elif kind is ast.Attribute:
                if type(node.ctx) is ast.Load:
                    reads.add(node.attr)
                elif getattr(node.value, "id", None) != "self":
                    store = _Call({node.attr: assigned.get(id(node),
                                                           "<unknown>")},
                                  [], set(), None, f"{where}:{node.lineno}")
                    receiver = node.value
                    store.receiver = getattr(receiver, "id", None) or \
                        getattr(receiver, "attr", "")
                    found.append((["<attribute store>"], store))
        for names, call in found:
            for name in names:
                self.calls[aliases.get(name, name)].append(call)


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
    positional: List[str] = []
    for arg in node.args:
        if isinstance(arg, ast.Starred):
            break
        positional.append(_value(arg))
    starred = len(positional) < len(node.args)
    keywords = {k.arg: _value(k.value) for k in node.keywords
                if k.arg is not None}
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
                        f"{where}:{node.lineno}", starred)


def _carries(call: _Call, option: _Option, calls: Dict[str, List[_Call]],
             seen: Set[str]) -> bool:
    """Whether ``call`` passes ``option`` a value other than its
    default."""
    name = option.name
    if name in call.keywords:
        return call.keywords[name] != option.default
    if name in call.splat:
        return True
    if call.forward is None or call.forward in seen:
        return False
    seen = seen | {call.forward}
    return any(_carries(outer, option, calls, seen)
               for outer in calls.get(call.forward, ()))


def setters(option: _Option, calls: Dict[str, List[_Call]],
            stored_by: Dict[str, Set[str]]) -> List[str]:
    """Where each call that sets ``option`` is; ``stored_by`` maps an
    attribute name to the classes whose ``__init__`` store it."""
    found = []
    for callee in option.callees:
        for call in calls.get(callee, ()):
            pos = option.position
            if pos is not None and pos < len(call.positional):
                if call.positional[pos] != option.default:
                    found.append(call.where)
            elif pos is not None and call.starred or \
                    _carries(call, option, calls, set()):
                found.append(call.where)
    if option.field:
        shared = not stored_by.get(option.name, set()) <= option.callees
        kind = next(s for s in OPTION_SUFFIXES
                    if option.owner.endswith(s)).lower()
        found += [c.where for c in calls["replace"]
                  if c.keywords.get(option.name, option.default)
                  != option.default]
        found += [c.where for c in calls["<attribute store>"]
                  if c.keywords.get(option.name, option.default)
                  != option.default
                  and (not shared or kind in c.receiver.lower())]
    return found


class Findings:
    """One census: every option's setters, and every write-only
    ``__init__`` attribute."""

    def __init__(self, src: Iterable[Tuple[str, ast.Module]],
                 callers: Iterable[Tuple[str, ast.Module]]) -> None:
        source = _Source(src)
        found = _Callers(callers)
        stored_by: Dict[str, Set[str]] = defaultdict(set)
        for owner, attr, _ in source.init_stores:
            stored_by[attr].add(owner)
        self.options = sorted(source.options, key=lambda o: o.label)
        self.setters = {o.label: setters(o, found.calls, stored_by)
                        for o in self.options}
        self.write_only = sorted({f"{owner}.{attr}"
                                  for owner, attr, _ in source.init_stores
                                  if attr not in found.reads})

    def unset(self) -> List[str]:
        return [label for label, where in self.setters.items() if not where]

    def test_only(self) -> List[str]:
        return [label for label, where in self.setters.items()
                if where and all(w.startswith("tests/") for w in where)]


def unlisted_test_only(found: Findings, keep: Dict[str, str]) -> List[str]:
    return [label for label in found.test_only() if label not in keep]


def stale(listed: Dict[str, str], labels: List[str]) -> List[str]:
    return sorted(set(listed) - set(labels))


@functools.lru_cache(maxsize=None)
def census() -> Findings:
    def callers():
        for top in CALLER_DIRS:
            yield from _modules(ROOT / top)
        yield from _snippets()
    return Findings(_modules(SRC), callers())


def test_every_option_has_a_setter():
    unset = [label for label in census().unset() if label not in EXEMPT]
    assert not unset, (
        "nothing sets these; make each a module constant at its one value, "
        "or name it in EXEMPT with a reason:\n  " + "\n  ".join(unset))


def test_every_exemption_is_still_needed():
    gone = stale(EXEMPT, census().unset())
    assert not gone, f"these now have a setter or are gone: {gone}"


def test_every_test_only_option_is_kept_by_name():
    unlisted = unlisted_test_only(census(), TEST_ONLY)
    assert not unlisted, (
        "only tests set these; make each a module constant at its one "
        "value, or name the behaviour its test needs in TEST_ONLY:\n  "
        + "\n  ".join(unlisted))


def test_every_test_only_keep_is_still_test_only():
    gone = stale(TEST_ONLY, census().test_only())
    assert not gone, (f"these now have a setter outside tests/, no setter, "
                      f"or are gone: {gone}")


def test_no_init_attribute_is_write_only():
    written = [label for label in census().write_only
               if label not in WRITE_ONLY]
    assert not written, f"nothing reads these; delete each store: {written}"
    gone = stale(WRITE_ONLY, census().write_only)
    assert not gone, f"these are read now or gone: {gone}"


# -- the rules themselves, on sources small enough to read --------------------

_KNOB_SRC = '''
from dataclasses import dataclass

@dataclass
class KnobConfig:
    depth: int = 4
    width: float = 2e-3
'''


def _findings(source: str, **callers: str) -> Findings:
    return Findings([("src/repro/knob.py", ast.parse(source))],
                    [("src/repro/knob.py", ast.parse(source))]
                    + [(f"{where}/caller.py", ast.parse(text))
                       for where, text in callers.items()])


def test_rule_an_unlisted_test_only_option_fails():
    found = _findings(_KNOB_SRC, tests="KnobConfig(depth=8)",
                      src="KnobConfig(width=1e-3)")
    assert found.test_only() == ["KnobConfig.depth"]
    assert unlisted_test_only(found, {}) == ["KnobConfig.depth"]
    assert unlisted_test_only(found, {"KnobConfig.depth": "why"}) == []


def test_rule_a_stale_test_only_entry_fails():
    keep = {"KnobConfig.depth": "why", "KnobConfig.gone": "why"}
    found = _findings(_KNOB_SRC, tests="KnobConfig(depth=8)",
                      benchmarks="KnobConfig(depth=2, width=1e-3)")
    assert stale(keep, found.test_only()) == ["KnobConfig.depth",
                                              "KnobConfig.gone"]


def test_rule_a_setter_passing_the_default_literal_does_not_count():
    found = _findings(
        _KNOB_SRC + "\ndef make_knob(depth=4):\n    return depth\n",
        tests="KnobConfig(4, width=2e-3)\nKnobConfig(width=0.002)\n"
              "replace(k, depth=4)\nk.depth = 4\nmake_knob(depth=4)\n",
        src="KnobConfig(depth=5)\n")
    assert found.unset() == ["KnobConfig.width", "make_knob.depth"]
    assert found.setters["KnobConfig.depth"] == ["src/caller.py:1"]


def test_rule_a_write_only_init_attribute_is_flagged():
    found = _findings('''
class Clock:
    __slots__ = ("offset",)

    def __init__(self, skew):
        self.skew = skew
        self.offset, self.epoch = skew / 2, 0
        self.ticks = 0
''', tests="print(Clock(1).ticks)")
    # ``offset`` is declared in ``__slots__`` and never read.
    assert found.write_only == ["Clock.epoch", "Clock.offset",
                                "Clock.skew"]


def test_rule_an_attribute_store_counts_only_on_an_unshared_name():
    found = _findings(_KNOB_SRC + '''
class Client:
    def __init__(self):
        self.depth = None
''', tests="client.depth = 9\nconfig.width = 1.0\n")
    assert found.setters["KnobConfig.depth"] == []
    assert found.setters["KnobConfig.width"] == ["tests/caller.py:2"]


if __name__ == "__main__":
    found = census()
    for option in found.options:
        where = sorted(found.setters[option.label],
                       key=lambda w: (w.split(":")[0], int(w.split(":")[1])))
        print(f"{len(where):5d}  {option.label}  {' '.join(where[:3])}")
