"""Span-based tracing over simulated time.

The paper's evaluation decomposes every operation into its constituent
costs — index fetch, data fetch, validation, quorum, retries — and plots
where the time and CPU went (Figs 7–20). This module provides the
substrate for that decomposition: a :class:`Span` tree records intervals
of *simulated* time, and a :class:`TraceContext` is threaded from
``CliqueMapClient`` through the transport, the fabric, the RPC framework
and into the backend, so a finished operation carries a complete
client → transport → fabric → backend breakdown in its result.

Since PR 10 the same types also carry *distributed* traces: every span
has a ``trace_id`` / ``span_id`` pair drawn from deterministic,
seed-derived streams, roots can reference a parent span in another zone
(``remote_parent``), and the post-run stitcher in
:mod:`repro.analysis.stitch` merges per-zone span trees back into one
cross-zone trace.

Design notes:

* Spans read the clock through a callable (normally ``lambda: sim.now``),
  so the same types work against wall-clock time in other harnesses.
* Tracing composes with untraced call sites: every ``trace=`` parameter
  in the stack defaults to ``None``, and :data:`NULL_SPAN` is a sink
  whose children are itself — so instrumented code never branches on
  "is tracing on?".
* The client's top-level *phase* spans (``index`` / ``data`` /
  ``validate`` on the GET path) are contiguous by construction: each
  starts at the simulated instant the previous one finished, so their
  durations sum exactly to the operation latency.
* Speculative work (e.g. the first-responder data fetch that 2xR GETs
  launch before the quorum settles) starts under the phase that
  *initiated* it. A phase may close while such a leg is still in
  flight (the quorum breaks the wait loop); closing a span **hoists**
  its still-open children to the nearest open ancestor (labelled
  ``hoisted_from=<phase>``) instead of freezing an interval that
  pretends to contain work it does not. Late ``child()`` calls against
  an already-closed span attach to the nearest open ancestor the same
  way (``late_child_of=<phase>``). A closing root with no open
  ancestor clips its open descendants to its own end time, so a
  recorded tree is always fully finished and self-contained.
* Trace ids come from a tracer-private :class:`~repro.sim.RandomStream`
  child (seeded from the cell seed + tracer namespace), and span ids
  from a tracer-private monotonic allocator — neither consumes shared
  RNG state, so tracing on/off never perturbs a seeded run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple
from weakref import ref

from ..sim.rand import RandomStream

# A cross-zone span reference: (trace_id, origin_zone, span_id). This is
# what travels inside a WAN message — plain picklable primitives.
SpanRef = Tuple[str, str, int]


class _IdAllocator:
    """Monotonic span-id source, shared by reference across one tree."""

    __slots__ = ("_next",)

    def __init__(self):
        self._next = 1

    def __call__(self) -> int:
        span_id = self._next
        self._next += 1
        return span_id


class Span:
    """One named interval of simulated time, with labels and children.

    A span owns its children; its :attr:`parent` is a weak reference, so
    a tree is acyclic and dies by reference counting the moment its root
    is dropped (docs/ARCHITECTURE.md §14).
    """

    __slots__ = ("name", "labels", "start", "end", "children", "_clock",
                 "_parent", "trace_id", "span_id", "remote_parent", "_ids",
                 "__weakref__")

    def __init__(self, name: str, clock: Callable[[], float],
                 labels: Optional[Dict[str, Any]] = None,
                 parent: Optional["Span"] = None,
                 trace_id: Optional[str] = None,
                 remote_parent: Optional[SpanRef] = None,
                 ids: Optional[_IdAllocator] = None):
        self.name = name
        self._clock = clock
        self.labels: Dict[str, Any] = dict(labels) if labels else {}
        self.start = clock()
        self.end: Optional[float] = None
        self.children: List["Span"] = []
        self._parent = ref(parent) if parent is not None else None
        self._ids = ids if ids is not None else (
            parent._ids if parent is not None else _IdAllocator())
        self.span_id = self._ids()
        self.trace_id = trace_id if trace_id is not None else (
            parent.trace_id if parent is not None else None)
        self.remote_parent = remote_parent

    @property
    def parent(self) -> Optional["Span"]:
        """The enclosing span, or None for a root (or once the tree that
        held this span has been dropped)."""
        return self._parent() if self._parent is not None else None

    @parent.setter
    def parent(self, span: Optional["Span"]) -> None:
        self._parent = ref(span) if span is not None else None

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.finish()   # on every exit, a raise included

    def _open_ancestor(self) -> Optional["Span"]:
        anc = self.parent
        while anc is not None and anc.end is not None:
            anc = anc.parent
        return anc

    def child(self, name: str, **labels: Any) -> "Span":
        """Open a child span starting now.

        Called against an already-finished span (a leg that outlived its
        phase), the child attaches to the nearest still-open ancestor
        instead, labelled ``late_child_of=<this span>`` — closing a
        phase never silently orphans work that races past it.
        """
        target = self
        if self.end is not None:
            anc = self._open_ancestor()
            if anc is not None:
                labels.setdefault("late_child_of", self.name)
                target = anc
        span = Span(name, target._clock, parent=target)
        span.labels = labels    # a fresh dict already: ``**labels``
        target.children.append(span)
        return span

    def finish(self, at: Optional[float] = None) -> "Span":
        """Close the span (idempotent: the first finish wins).

        Reparent-on-close: any child still open at this instant is
        hoisted to the nearest open ancestor (labelled
        ``hoisted_from``), so this span's recorded interval truthfully
        contains only the work that finished inside it. With no open
        ancestor (a root closing), open descendants are clipped to this
        span's end instead (labelled ``clipped_by``) so a recorded tree
        is always fully finished.
        """
        if self.end is None:
            self.end = self._clock() if at is None else at
            for child in self.children:
                if child.end is None:
                    break
            else:
                return self     # the common case: nothing left open
            anc = self._open_ancestor()
            for child in [c for c in self.children if c.end is None]:
                if anc is not None:
                    self.children.remove(child)
                    child.parent = anc
                    child.labels.setdefault("hoisted_from", self.name)
                    anc.children.append(child)
                else:
                    child.labels.setdefault("clipped_by", self.name)
                    child.finish(self.end)
        return self

    def annotate(self, **labels: Any) -> "Span":
        self.labels.update(labels)
        return self

    # -- readbacks -----------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Elapsed simulated seconds (up to now for an unfinished span)."""
        end = self.end if self.end is not None else self._clock()
        return end - self.start

    def ref(self, zone: str = "") -> SpanRef:
        """This span's cross-zone reference (what goes on the wire)."""
        return (self.trace_id or "", zone, self.span_id)

    def walk(self, depth: int = 0) -> Iterator[Tuple[int, "Span"]]:
        """Depth-first (depth, span) traversal including this span."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in depth-first order (or None)."""
        for _depth, span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> List["Span"]:
        return [s for _d, s in self.walk() if s.name == name]

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "labels": dict(self.labels),
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": (self.parent.span_id
                               if self.parent is not None else None),
            "children": [c.to_dict() for c in self.children],
        }
        if self.remote_parent is not None:
            out["remote_parent"] = list(self.remote_parent)
        return out

    def render(self) -> str:
        """Indented plain-text tree with per-span durations in us."""
        lines = []
        for depth, span in self.walk():
            labels = "".join(f" {k}={v}" for k, v in sorted(
                span.labels.items()))
            open_mark = "" if span.finished else " (open)"
            lines.append(f"{'  ' * depth}{span.name:<{max(1, 24 - 2 * depth)}}"
                         f" {span.duration * 1e6:9.2f}us{open_mark}{labels}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, duration={self.duration:.3e}, "
                f"children={len(self.children)})")


class _NullSpan:
    """A no-op span: the sink used when tracing is disabled.

    Its children are itself, so instrumented code can unconditionally
    ``span.child(...)`` / ``span.finish()`` without branching.
    """

    __slots__ = ()

    def child(self, name: str, **labels: Any) -> "_NullSpan":
        return self

    def finish(self, at: Optional[float] = None) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        pass

    def annotate(self, **labels: Any) -> "_NullSpan":
        return self

    def walk(self, depth: int = 0):
        return iter(())

    def find(self, name: str) -> None:
        return None

    def __bool__(self) -> bool:
        # Falsy, so ``trace or NULL_SPAN`` idioms and "did we trace?"
        # checks both behave.
        return False

    def __repr__(self) -> str:
        return "NULL_SPAN"


NULL_SPAN = _NullSpan()


class TraceContext:
    """The tracing state threaded through one operation.

    Thin by design: it carries the operation's root span,
    and is what public APIs accept as their ``trace=`` argument. Most
    instrumented layers only ever see a :class:`Span`; the context exists
    so callers can pass "trace this op into here" as one object.
    """

    __slots__ = ("root",)

    def __init__(self, root: Span):
        self.root = root


# Statuses that mark an operation trace as an error for tail sampling.
ERROR_STATUSES = frozenset({"error", "failed", "timeout", "inquorate",
                            "unavailable"})


class Tracer:
    """Creates root spans and retains a bounded history of finished ops.

    ``seed``/``namespace`` derive the deterministic trace-id stream: the
    same (seed, namespace) always yields the same id sequence, and
    distinct namespaces (one per zone cell) yield disjoint sequences, so
    cross-zone traces stitch without collisions and a traced run stays
    bit-identical to an untraced one (the stream is tracer-private —
    no shared RNG state is consumed).

    Tail sampling (``tail_sample_every``): when set, :meth:`record`
    keeps full span trees only for error ops, slow ops (duration >=
    ``tail_slow_threshold``, when given), and a deterministic 1-in-N of
    the roots it is handed (a parented span, such as an ``append``'s
    inner GET, is part of its root's tree, not a decision of its own);
    everything else is counted in ``sampled_out`` and
    dropped. Left at ``None`` (the default) every finished root is
    retained, bounded by ``max_retained``.
    """

    def __init__(self, clock: Callable[[], float], enabled: bool = True,
                 max_retained: int = 64, seed: Optional[int] = None,
                 namespace: str = "",
                 tail_sample_every: Optional[int] = None,
                 tail_slow_threshold: Optional[float] = None):
        self.clock = clock
        self.enabled = enabled
        self.max_retained = max_retained
        self.tail_sample_every = tail_sample_every
        self.tail_slow_threshold = tail_slow_threshold
        self.finished: List[Span] = []
        self.sampled_out = 0
        self._decisions = 0
        self._ids = _IdAllocator()
        self._trace_rand = RandomStream(
            seed if seed is not None else 0,
            f"tracer/{namespace or 'default'}")

    def _next_trace_id(self) -> str:
        return f"{self._trace_rand.randint(1, (1 << 64) - 1):016x}"

    def start(self, name: str, parent: Optional[Span] = None,
              remote_parent: Optional[SpanRef] = None, **labels: Any):
        """Open a root span (or :data:`NULL_SPAN` when disabled).

        ``parent`` (a local :class:`Span` or falsy) makes the new span a
        child of an enclosing operation instead of a standalone root.
        ``remote_parent`` is a :data:`SpanRef` from another zone: the
        new root joins that trace (same ``trace_id``) and records the
        reference for the post-run stitcher.
        """
        if not self.enabled:
            return NULL_SPAN
        if parent:
            span = parent.child(name, **labels)
            return span
        trace_id = (remote_parent[0] if remote_parent else
                    self._next_trace_id())
        return Span(name, self.clock, labels, ids=self._ids,
                    trace_id=trace_id, remote_parent=remote_parent)

    def record(self, span) -> None:
        """Retain a finished root span (bounded, oldest dropped)."""
        if span is NULL_SPAN or span is None:
            return
        if self.tail_sample_every is not None and not self._tail_keep(span):
            self.sampled_out += 1
            return
        self.finished.append(span)
        if len(self.finished) > self.max_retained:
            del self.finished[:len(self.finished) - self.max_retained]

    def _tail_keep(self, span: Span) -> bool:
        self._decisions += 1
        status = span.labels.get("status")
        if status in ERROR_STATUSES or span.labels.get("error"):
            return True
        if (self.tail_slow_threshold is not None and
                span.finished and span.duration >= self.tail_slow_threshold):
            return True
        # Deterministic 1-in-N on the kept-or-dropped decision sequence.
        return (self._decisions % self.tail_sample_every) == 0

    def last(self) -> Optional[Span]:
        return self.finished[-1] if self.finished else None
