"""The CliqueMap client library (§3, §5).

The client is where CliqueMap's design concentrates its cleverness. Its
reads live in :mod:`repro.core.lookup` and its writes in
:mod:`repro.core.mutation`; this module holds what both share:

* **layered retries**: checksum failures retry the RMA; revoked regions
  re-handshake over RPC; config mismatches refresh from the external
  store; dead backends are skipped while a reconnect loop runs (§9);
* **batched touch reporting** so backends can run recency-based
  eviction despite never seeing GETs (§4.2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional

from ..net import Fabric, Host
from ..rpc import Principal, RpcError, connect as rpc_connect
from ..sim import Interrupt, RandomStream, Simulator
from ..telemetry import (NULL_FLIGHT, MetricsRegistry, TraceContext, Tracer,
                         tally)
from ..transport import Transport
from .config import CellConfig, ConfigStore, GetStrategy
from .errors import BackendView, CliqueMapError, OpResult, _AttemptRetry
from .hashing import Placement
from .lookup import _Lookup
from .mutation import _Mutation
from .resilience import BackendHealth, BackoffPolicy, RetryBudget
from .truetime import TrueTime
from .version import VersionFactory

# Fallback id space for clients created outside a Cell; Cell-created
# clients get deterministic per-cell ids (reproducibility requires that
# version tiebreaks and backoff seeds not depend on process history).
_client_ids = itertools.count(1 << 20)

_TOUCH_BATCH_MAX = 512           # key hashes per batched Touch RPC (§4.2)


@dataclass
class ClientConfig:
    """Client behavior knobs."""

    default_deadline: float = 10e-3
    max_retries: int = 10
    # Backoff between retries: exponential with decorrelated jitter,
    # starting at retry_backoff and capped at retry_backoff_cap. Set
    # retry_backoff=0 to disable (no sleep between attempts).
    retry_backoff: float = 15e-6
    retry_backoff_cap: float = 2e-3
    # Token-bucket retry budget shared by all of this client's ops: each
    # retry spends one token; when dry, retries are shed and the op fails
    # fast with a "budget-exhausted" reason. capacity <= 0 disables.
    retry_budget_capacity: float = 128.0
    retry_budget_fill_rate: float = 1000.0      # tokens per second
    mutation_rpc_deadline: float = 5e-3
    touch_enabled: bool = True
    touch_flush_interval: float = 20e-3
    reconnect_interval: float = 2e-3
    overflow_rpc_lookup: bool = True
    # Ablation switch: always fetch the datum from the logical primary
    # instead of the first responder (a primary/backup-style read path).
    force_primary_data_fetch: bool = False
    # Transparent value compression (a post-launch feature, §9). This is
    # a *corpus-level* convention: every client of the corpus must agree,
    # since values are stored wrapped with a 1-byte scheme header.
    compression_enabled: bool = False

    def __post_init__(self) -> None:
        for name, minimum in (("default_deadline", 0.0),
                              ("mutation_rpc_deadline", 0.0),
                              ("touch_flush_interval", 0.0),
                              ("reconnect_interval", 0.0)):
            value = getattr(self, name)
            if value <= minimum:
                raise CliqueMapError(
                    f"ClientConfig.{name} must be > {minimum:g}, "
                    f"got {value!r}")
        if self.max_retries < 1:
            raise CliqueMapError(
                "ClientConfig.max_retries must be >= 1 (it counts "
                f"attempts, including the first), got {self.max_retries!r}")
        if self.retry_backoff < 0:
            raise CliqueMapError(
                "ClientConfig.retry_backoff must be >= 0, "
                f"got {self.retry_backoff!r}")
        if self.retry_backoff_cap < self.retry_backoff:
            raise CliqueMapError(
                "ClientConfig.retry_backoff_cap must be >= retry_backoff, "
                f"got {self.retry_backoff_cap!r} < {self.retry_backoff!r}")
        if self.retry_budget_fill_rate < 0:
            raise CliqueMapError(
                "ClientConfig.retry_budget_fill_rate must be >= 0, "
                f"got {self.retry_budget_fill_rate!r}")



class CliqueMapClient(_Lookup, _Mutation):
    """One application client of a CliqueMap cell."""

    def __init__(self, sim: Simulator, fabric: Fabric, host: Host,
                 cell_name: str, config_store: ConfigStore,
                 directory: Callable[[str], object],
                 transport: Transport,
                 principal: Optional[Principal] = None,
                 strategy: Optional[GetStrategy] = None,
                 config: Optional[ClientConfig] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 flight=None,
                 client_id: Optional[int] = None):
        self.sim = sim
        self.fabric = fabric
        self.host = host
        self.cell_name = cell_name
        self.config_store = config_store
        self.directory = directory
        self.transport = transport
        self.principal = principal or Principal(f"client@{host.name}")
        self.client_id = client_id if client_id is not None \
            else next(_client_ids)
        self.config = config or ClientConfig()
        if strategy is None:
            strategy = (GetStrategy.SCAR
                        if transport is not None and transport.supports_scar
                        else GetStrategy.TWO_R)
        self.strategy = GetStrategy.coerce(strategy)
        self.truetime = TrueTime(sim)
        self.versions = VersionFactory(self.client_id, self.truetime)

        self.cell: Optional[CellConfig] = None
        self.placement: Optional[Placement] = None
        # Target-layout placement while a resize is in flight (None
        # otherwise): reads keep their quorum on ``placement``; mutations
        # are additionally shadowed onto the target cohort.
        self.next_placement: Optional[Placement] = None
        self._views: Dict[str, BackendView] = {}
        self._pending_touches: Dict[str, List[bytes]] = {}
        self._pending_touch_count = 0
        self._touch_flusher_started = False
        self._reconnecting: set = set()
        self._config_refreshing = False
        self._closed = False
        # Miss-path coordinator; wired by Cell.attach_sor / make_client.
        # When set, cache MISSes read through to the system of record
        # and acknowledged mutations are noted for write-behind.
        self.read_through = None

        # Counts no registry family carries (see ``stats``).
        self._counts = {
            "config_refreshes": 0, "view_refreshes": 0,
            "overflow_lookups": 0, "torn_reads": 0, "version_races": 0,
            "sor_hits": 0,
        }

        # Degradation machinery: decorrelated-jitter backoff (seeded per
        # client id, so runs with the same topology are reproducible) and
        # a token-bucket retry budget shared by all of this client's ops.
        self._retry_rand = RandomStream(self.client_id, "client-backoff")
        self._retry_budget = RetryBudget(
            clock=lambda: self.sim.now,
            capacity=self.config.retry_budget_capacity,
            fill_rate=self.config.retry_budget_fill_rate)

        # Telemetry: a cell-shared registry when created via Cell, a
        # private one for standalone clients; the tracer retains recent
        # operation span trees (see repro.telemetry).
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer or Tracer(clock=lambda: self.sim.now)
        # Flight recorder (cell-shared ring of structured events).
        # NULL_FLIGHT is falsy, so every hook site below guards with
        # ``if self._flight:`` and a disabled recorder costs nothing.
        self._flight = flight if flight is not None else NULL_FLIGHT
        self._flight_origin = f"client-{self.client_id}"
        # Counter tallies: the registry families and ``stats`` read them.
        metrics = self.metrics
        self._ops = metrics.adopt(
            "cliquemap_ops_total",
            "Completed client operations by op and terminal status",
            tally(("get", "hit"), ("get", "miss"), ("get", "error"),
                  ("set", "applied"), ("set", "failed")), ("op", "status"))
        self._m_latency = metrics.histogram(
            "cliquemap_op_latency_seconds",
            "End-to-end operation latency by op and lookup strategy")
        self._retries = metrics.adopt(
            "cliquemap_retries_total",
            "Per-attempt retries by op and hazard reason", tally(),
            ("op", "reason"))
        self._m_touch_pending = metrics.gauge(
            "cliquemap_pending_touches",
            "Key touches buffered awaiting the next batched Touch RPC")
        self._retries_shed = metrics.adopt(
            "cliquemap_retries_shed_total",
            "Retries refused because the client's retry budget was dry",
            tally(), ("op", "reason"))
        self._quarantines = metrics.adopt(
            "cliquemap_backend_quarantine_total",
            "Backend quarantine transitions by task and event (enter/exit)",
            tally(), ("task", "event"))
        self._m_batch_size = metrics.histogram(
            "cliquemap_batch_size_keys",
            "Keys per batched multi-key client operation")
        self._batch_keys = metrics.adopt(
            "cliquemap_client_batch_keys_total",
            "Keys resolved on the batched fast path, by op",
            tally("get", "set"), ("op",))
        self._batch_fallbacks = metrics.adopt(
            "cliquemap_batch_fallback_total",
            "Batch keys diverted to the singleton retry path, by op/reason",
            tally(), ("op", "reason"))
        self._shadows = metrics.adopt(
            "cliquemap_shadow_writes_total",
            "Dual-write shadows onto a resize target cohort, by "
            "method and outcome", tally(), ("method", "outcome"))

        # Pre-bound series handles for the per-op hot path. Resolving
        # ``labels(...)`` sorts and hashes the label set on every call;
        # the strategy label is fixed for the client's lifetime, so the
        # common series are bound once here and the rest memoized on
        # first use in :meth:`_finish_op`.
        strategy = self.strategy.value
        self._h_latency = {
            op: self._m_latency.labels(op=op, strategy=strategy)
            for op in ("get", "set", "erase", "append")}
        self._h_batched_latency = {
            op: self._m_latency.labels(op=op, strategy="batched")
            for op in ("get", "set")}
        self._h_batch_size_get = self._m_batch_size.labels(op="get_multi")
        self._h_batch_size_set = self._m_batch_size.labels(op="set_multi")
        self._h_touch_pending = self._m_touch_pending.labels(
            client=self.client_id)

    @property
    def stats(self) -> Dict[str, int]:
        """Built per read; op, outcome and retry keys are derived from
        the registry tallies, the rest read ``_counts``."""
        ops, retries, counts = self._ops, self._retries, self._counts
        per_op = dict.fromkeys(("get", "set", "erase", "cas", "append"), 0)
        for (op, _status), n in ops.items():
            per_op[op] += n
        return {
            "gets": per_op["get"], "hits": ops["get", "hit"],
            "misses": ops["get", "miss"], "get_errors": ops["get", "error"],
            "retries": sum(retries.values()),
            "retries_shed": sum(self._retries_shed.values()),
            "validation_failures": sum(
                n for (_op, reason), n in retries.items()
                if reason.startswith("validation")),
            "inquorate": sum(n for (_op, reason), n in retries.items()
                             if reason == "inquorate"),
            "config_refreshes": counts["config_refreshes"],
            "view_refreshes": counts["view_refreshes"],
            "sets": per_op["set"], "erases": per_op["erase"],
            "cas": per_op["cas"], "appends": per_op["append"],
            "overflow_lookups": counts["overflow_lookups"],
            "torn_reads": counts["torn_reads"],
            "version_races": counts["version_races"],
            "sor_hits": counts["sor_hits"],
        }

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    def connect(self) -> Generator:
        """Fetch cell config and handshake with every serving backend."""
        config = yield from self.config_store.get(self.cell_name)
        self._adopt_config(config)
        for task in self.cell.serving_tasks():
            yield from self._build_view(task)

    def _adopt_config(self, config: CellConfig) -> None:
        """Install a config generation: rebuild the authoritative
        placement and, mid-resize, the target-layout placement too."""
        self.cell = config
        if self._flight:
            self._flight.record("config", origin=self._flight_origin,
                                config_id=config.config_id,
                                num_shards=config.num_shards,
                                resize_active=config.resize_active)
        self.placement = Placement(config.num_shards,
                                   config.mode.replicas)
        if config.resize_active:
            self.next_placement = Placement(config.resize_num_shards,
                                            config.mode.replicas)
        else:
            self.next_placement = None

    def _health_event(self, task: str, event: str) -> None:
        self._quarantines[task, event] += 1
        if self._flight:
            self._flight.record("quarantine", origin=self._flight_origin,
                                task=task, event=event)

    def _new_health(self, task: str) -> BackendHealth:
        return BackendHealth(task, clock=lambda: self.sim.now,
                             on_event=self._health_event)

    def _build_view(self, task: str) -> Generator:
        backend = self.directory(task)
        view = self._views.get(task)
        new_incarnation = False
        if view is None or view.channel.server is not backend.rpc_server:
            new_incarnation = view is not None
            channel = rpc_connect(self.sim, self.fabric, self.host,
                                  backend.rpc_server, self.principal,
                                  client_component="cliquemap-client")
            health = view.health if view is not None \
                else self._new_health(task)
            view = BackendView(task=task, host_name=backend.host.name,
                               channel=channel, health=health)
            self._views[task] = view
        try:
            info = yield from view.channel.call(
                "Info", {}, deadline=self.config.mutation_rpc_deadline)
        except RpcError:
            view.health.mark_down()
            self._start_reconnect(task)
            return view
        view.config_id = info["config_id"]
        view.index_region_id = info["index_region_id"]
        view.num_buckets = info["num_buckets"]
        view.ways = info["ways"]
        view.bucket_bytes = info["bucket_bytes"]
        view.data_region_id = info["data_region_id"]
        # A handshake proves the control channel, not the data path: it
        # reconnects the view but does not clear quarantine — only op
        # successes do, so a gray replica cannot flap back in. The one
        # exception is a brand-new server incarnation: its predecessor's
        # failure history died with the old process.
        view.health.mark_connected()
        if new_incarnation:
            view.health.reset_for_new_incarnation()
        self._counts["view_refreshes"] += 1
        return view

    def _refresh_config(self) -> Generator:
        """Re-read cell topology from the external HA store (§6.1)."""
        config = yield from self.config_store.get(self.cell_name)
        self._adopt_config(config)
        self._counts["config_refreshes"] += 1
        for task in self.cell.serving_tasks():
            yield from self._build_view(task)

    def _note_stale_config(self, config_id: int) -> None:
        """A reply proved the cell moved on: refresh in the background.

        Mutation replies carry the backend's serving generation, so even
        a SET-only client (which never validates bucket headers, the
        usual discovery path) learns about resize phases and cutover.
        Deduped: one refresh in flight at a time.
        """
        if self._closed or self.cell is None:
            return
        if config_id <= self.cell.config_id or self._config_refreshing:
            return
        self._config_refreshing = True

        def refresh() -> Generator:
            try:
                yield from self._refresh_config()
            finally:
                self._config_refreshing = False

        proc = self.sim.process(refresh(),
                                name=f"config-refresh:{self.client_id}")
        proc.defused = True

    def _start_reconnect(self, task: str) -> None:
        if task in self._reconnecting:
            return
        self._reconnecting.add(task)
        proc = self.sim.process(self._reconnect_loop(task),
                                name=f"reconnect:{task}")
        proc.defused = True

    def _reconnect_loop(self, task: str) -> Generator:
        try:
            while True:
                yield self.sim.delay(self.config.reconnect_interval)
                if task not in self.cell.serving_tasks():
                    return  # task no longer serves; a refresh will rebuild
                view = yield from self._build_view(task)
                if view.health.connected:
                    # Reconnected; any remaining quarantine expires on
                    # its own cooldown (or on the next op success).
                    return
        finally:
            self._reconnecting.discard(task)

    def _replica_views(self, key_hash: bytes) -> List[BackendView]:
        """Healthy views for the key's replica cohort, shard order."""
        views = []
        for shard in self.placement.shards_for(key_hash):
            task = self.cell.task_for_shard(shard)
            view = self._views.get(task)
            if view is None:
                continue  # will be built on next config refresh
            if view.health.available():
                views.append(view)
        return views

    def _shadow_views(self, key_hash: bytes) -> List[BackendView]:
        """Target-cohort views a mutation must dual-write to (resize).

        The key's cohort under the *target* layout, minus any task that
        is already in its authoritative cohort (those get the real
        mutation). Empty when no resize is in flight.
        """
        cell = self.cell
        if cell is None or not cell.resize_active or \
                self.next_placement is None:
            return []
        exclude = {cell.task_for_shard(shard)
                   for shard in self.placement.shards_for(key_hash)}
        views = []
        for shard in self.next_placement.shards_for(key_hash):
            task = cell.migrating_to.get(shard)
            if task is None or task in exclude:
                continue
            view = self._views.get(task)
            if view is not None and view.health.available():
                views.append(view)
        return views

    def _leg_down(self, view: BackendView) -> None:
        """One RMA leg (or mutation RPC) found the backend unreachable.

        Recorded at the leg, not at vote collection: once a quorum
        settles, the losing legs are abandoned — but a gray (lossy)
        replica's failures must still feed the health scoreboard or it
        never trips quarantine while the quorum keeps masking it.
        """
        view.health.mark_down()
        self._start_reconnect(view.task)

    # -- the op engine -------------------------------------------------------

    def _run_op(self, op: str, root, deadline_at: float,
                attempt_fn: Callable[[int], Generator],
                recover: Optional[Callable[[_AttemptRetry], Generator]]
                = None) -> Generator:
        """The one retry loop every retrying op runs under (§9).

        Drives ``attempt_fn(attempt)`` until it returns an outcome or
        the op runs out of road: ``max_retries`` attempts, the deadline,
        a dry retry budget, or a backoff sleep that would cross the
        deadline. An attempt asks for another by raising
        :class:`_AttemptRetry`; ``recover`` (optional) repairs client
        state for that hazard before the backoff sleep. Returns
        ``(outcome, attempts, reason)`` — ``outcome`` is None on
        terminal failure and ``reason`` is then the last hazard, or
        ``"budget-exhausted"`` when the retry was shed.
        """
        max_retries = self.config.max_retries
        attempts = 0
        reason = "no-healthy-replicas"
        backoff = None
        while attempts < max_retries and self.sim.now < deadline_at:
            attempts += 1
            try:
                return (yield from attempt_fn(attempts)), attempts, None
            except _AttemptRetry as retry:
                reason = retry.reason
                self._note_retry(op, reason, attempts)
                if attempts >= max_retries or self.sim.now >= deadline_at:
                    break  # terminal: no further attempt to pay for
                if not self._retry_budget.try_spend():
                    # Budget dry: shed the retry instead of amplifying
                    # the overload; fail fast with a distinct reason.
                    self._note_shed(op, reason, attempts)
                    root.annotate(shed_retry=True)
                    reason = "budget-exhausted"
                    break
                recovery = root.child("retry", attempt=attempts,
                                      reason=reason)
                if recover is not None:
                    yield from recover(retry)
                if backoff is None:
                    backoff = BackoffPolicy(self.config.retry_backoff,
                                            self.config.retry_backoff_cap,
                                            self._retry_rand)
                delay = backoff.next_delay()
                if self.sim.now + delay >= deadline_at:
                    # The backoff would sleep past the deadline; stop now
                    # instead of burning the remaining attempts in a
                    # zero-delay spin at the deadline instant.
                    recovery.finish()
                    break
                if delay:
                    yield self.sim.delay(delay)
                recovery.finish()
        return None, attempts, reason

    def _recover_get(self, retry: _AttemptRetry,
                     key_hash: bytes) -> Generator:
        """GET's ``recover`` hook: rebuild what the hazard proved stale."""
        for task in retry.stale_tasks:
            yield from self._build_view(task)
        if retry.refresh_config:
            yield from self._refresh_config()
        if retry.reason in ("no-healthy-replicas", "inquorate",
                            "replica-down", "replica-error"):
            # Failed-RMA retries contact backends via RPC as part of the
            # retry procedure (§4.1) — re-handshake any disconnected
            # cohort member inline rather than waiting for the background
            # reconnect loop. Quarantined members are left to cool down —
            # unless the directory shows the task restarted, in which
            # case the quarantine belongs to a dead incarnation and a
            # handshake re-admits the new one.
            for shard in self.placement.shards_for(key_hash):
                task = self.cell.task_for_shard(shard)
                view = self._views.get(task)
                if view is None or (not view.health.connected and
                                    not view.health.quarantined):
                    yield from self._build_view(task)
                elif view.channel.server is not \
                        self.directory(task).rpc_server:
                    yield from self._build_view(task)

    def _note_retry(self, op: str, reason: str, attempt: int) -> None:
        """One failed attempt: the tally and the flight recorder."""
        self._retries[op, reason] += 1
        if self._flight:
            self._flight.record("retry", origin=self._flight_origin,
                                op=op, reason=reason, attempt=attempt)

    def _note_shed(self, op: str, reason: str, attempt: int) -> None:
        """One retry refused by the dry budget: tally and flight."""
        self._retries_shed[op, reason] += 1
        if self._flight:
            self._flight.record("retry_shed", origin=self._flight_origin,
                                op=op, reason=reason, attempt=attempt)

    def _finish_op(self, op: str, status: str, latency: float, root,
                   batched: bool = False) -> Optional[TraceContext]:
        """Record one completed key: tally, latency, flight, trace.

        Every completion — singleton op or one key of a batch — passes
        through here. A ``batched`` key lands in the
        ``strategy="batched"`` latency series and shares its batch's
        root, which the batch itself finishes and records once.
        """
        self._ops[op, status] += 1
        if batched:
            self._batch_keys[op] += 1
            latency_handle = self._h_batched_latency[op]
        else:
            latency_handle = self._h_latency.get(op)
            if latency_handle is None:
                latency_handle = self._h_latency[op] = \
                    self._m_latency.labels(op=op,
                                           strategy=self.strategy.value)
        latency_handle.observe(latency)
        if self._flight:
            self._flight.record("op", origin=self._flight_origin, op=op,
                                status=status, latency=latency,
                                trace_id=root.trace_id if root else None)
        if not root:  # tracing disabled: NULL_SPAN is falsy
            return None
        if batched:
            return TraceContext(root)
        root.annotate(status=status)
        # Only standalone roots enter the tracer's retained history — a
        # parented op (federated fan-out leg, gateway serve) is part of
        # its enclosing trace, which is recorded by whoever started it.
        if root.parent is None:
            self.tracer.record(root)
            if root.trace_id and self.tracer.finished and \
                    self.tracer.finished[-1] is root:
                # Exemplar: link this (retained) trace to the latency
                # histogram sample it produced.
                latency_handle.exemplar(latency, root.trace_id,
                                        self.sim.now)
        return TraceContext(root)

    # -- batches: the shared fallback ---------------------------------------

    def _fanout(self, ops, on_error) -> Generator:
        """Run singleton ops in parallel, with per-key failure isolation."""
        results = yield self.sim.all_of(
            [self.sim.process(self._isolate(op, on_error)) for op in ops])
        return results

    def _isolate(self, gen: Generator, on_error) -> Generator:
        """Contain one key's failure to its own slot of a batch.

        ``sim.all_of`` fails the whole condition on the first child
        failure, discarding sibling results; batches instead map an
        unhandled per-key exception to that key's error result.
        """
        try:
            return (yield from gen)
        except Interrupt:
            raise
        except Exception as exc:
            return on_error(exc)

    def _finish_batch(self, op: str, root, results: List[Optional[OpResult]],
                      fallback: Dict[int, str], started: float,
                      deadline_at: float,
                      singleton: Callable[[int, float], Generator],
                      on_error: Callable[[Exception], OpResult],
                      refresh_config: bool = False,
                      stale_tasks=()) -> Generator:
        """Settle a batch: send each key the fast path left in
        ``fallback`` through the ``singleton`` retry path, then finish
        the batch root and record it once."""
        if fallback:
            for reason in fallback.values():
                self._batch_fallbacks[op, reason] += 1
            # Recover shared state once, up front, so the per-key
            # singletons start from fresh views instead of each
            # re-discovering the same staleness (§4.1 retry procedure,
            # amortized over the batch).
            if refresh_config:
                yield from self._refresh_config()
            for task in stale_tasks:
                yield from self._build_view(task)
            prefix = self.sim.now - started
            remaining = max(1e-6, deadline_at - self.sim.now)
            ordered = sorted(fallback)
            outcomes = yield from self._fanout(
                [singleton(i, remaining) for i in ordered], on_error)
            for i, result in zip(ordered, outcomes):
                result.latency += prefix  # account the batch phase too
                results[i] = result
        root.annotate(resolved=len(results) - len(fallback),
                      fallback=len(fallback)).finish()
        if root and root.parent is None:
            self.tracer.record(root)

    # ------------------------------------------------------------------
    # Touch reporting (§4.2)
    # ------------------------------------------------------------------

    def _note_touch(self, key_hash: bytes) -> None:
        if not self.config.touch_enabled or self._closed:
            return
        pending = self._pending_touches
        for shard in self.placement.shards_for(key_hash):
            task = self.cell.task_for_shard(shard)
            bucket = pending.get(task)
            if bucket is None:
                bucket = pending[task] = []
            bucket.append(key_hash)
            self._pending_touch_count += 1
        self._update_touch_gauge()
        if not self._touch_flusher_started:
            self._touch_flusher_started = True
            proc = self.sim.process(self._touch_flusher(),
                                    name=f"touch-flush:{self.client_id}")
            proc.defused = True

    def _update_touch_gauge(self) -> None:
        # A running count instead of summing every bucket: this fires on
        # each touched key, which on a hit-heavy workload is every GET.
        self._h_touch_pending.set(self._pending_touch_count)

    def _touch_flusher(self) -> Generator:
        """Background batch reporting of accesses, amortizing RPC cost."""
        while not self._closed:
            yield self.sim.delay(self.config.touch_flush_interval)
            yield from self._flush_touches_once()

    def _flush_touches_once(self) -> Generator:
        """Report every buffered touch batch now (one sweep)."""
        pending, self._pending_touches = self._pending_touches, {}
        self._pending_touch_count = 0
        self._update_touch_gauge()
        for task, hashes in pending.items():
            view = self._views.get(task)
            if view is None or not view.health.available():
                continue
            for i in range(0, len(hashes), _TOUCH_BATCH_MAX):
                batch = hashes[i:i + _TOUCH_BATCH_MAX]
                try:
                    yield from view.channel.call(
                        "Touch", {"key_hashes": batch},
                        deadline=self.config.mutation_rpc_deadline,
                        request_size=16 * len(batch) + 32)
                except RpcError:
                    break

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def retry_budget(self) -> RetryBudget:
        return self._retry_budget

    def backend_health(self, task: str) -> Optional[BackendHealth]:
        view = self._views.get(task)
        return view.health if view is not None else None

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Flush buffered touches and release this client's telemetry.

        Safe to call repeatedly. When the simulator is idle (the usual
        case: test/benchmark code closing a client between ``sim.run``
        calls) the final Touch flush is driven to completion inside the
        simulation; when called from within a running simulation the
        flusher process performs the sweep instead.
        """
        if self._closed:
            return
        if any(self._pending_touches.values()) and \
                not getattr(self.sim, "_running", False):
            self.sim.run(until=self.sim.process(self._flush_touches_once()))
        self._closed = True
        self._m_touch_pending.remove(client=self.client_id)

    def __enter__(self) -> "CliqueMapClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
