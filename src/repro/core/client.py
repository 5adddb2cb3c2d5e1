"""The CliqueMap client library (§3, §5).

The client is where CliqueMap's design concentrates its cleverness:

* **2xR GETs** — bucket fetch, scan, data fetch, all one-sided;
* **SCAR GETs** — one round trip via the software NIC (§6.3);
* **RPC lookups** — fallback for WAN access and overflowed buckets;
* **client-side quoruming** with first-responder preference (§5.1);
* **self-validation** of every response: checksum, full-key compare,
  version-vs-quorum, bucket magic, and configuration id (§3, §6.1);
* **layered retries**: checksum failures retry the RMA; revoked regions
  re-handshake over RPC; config mismatches refresh from the external
  store; dead backends are skipped while a reconnect loop runs (§9);
* **mutations** via RPC to all replicas with client-nominated
  VersionNumbers (§5.2);
* **batched touch reporting** so backends can run recency-based
  eviction despite never seeing GETs (§4.2).
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..net import Fabric, Host, NetworkDropError
from ..rpc import (PermissionDeniedError, Principal, RpcChannel, RpcError,
                   connect as rpc_connect)
from ..sim import Interrupt, RandomStream, Simulator
from ..sim.core import PARKED
from ..telemetry import (NULL_FLIGHT, NULL_SPAN, MetricsRegistry,
                         TraceContext, Tracer, tally)
from ..transport import (RegionRevokedError, RemoteHostDownError, RmaError,
                         Transport)
from .config import CellConfig, ConfigStore, GetStrategy, ReplicationMode
from .data import try_decode
from .errors import CliqueMapError, GetStatus, SetStatus
from .hashing import Placement
from .index import parse_bucket
from .quorum import (Ballot, QuorumDecision, QuorumOutcome, ReplicaVote,
                     VoteKind)
from .resilience import (BackendHealth, BackoffPolicy, HealthPolicy,
                         RetryBudget)
from .truetime import TrueTime
from .version import VersionFactory, VersionNumber

# Fallback id space for clients created outside a Cell; Cell-created
# clients get deterministic per-cell ids (reproducibility requires that
# version tiebreaks and backoff seeds not depend on process history).
_client_ids = itertools.count(1 << 20)

_TOUCH_BATCH_MAX = 512           # key hashes per batched Touch RPC (§4.2)
_COMPRESS_CPU_PER_KB = 10e-6     # ~100 MB/s deflate
_DECOMPRESS_CPU_PER_KB = 3e-6    # ~300 MB/s inflate


@dataclass
class ClientCostModel:
    """CliqueMap-client CPU costs (distinct from transport/engine CPU)."""

    issue_op_cpu: float = 0.22e-6       # set up one RMA op
    completion_cpu: float = 0.28e-6     # process one RMA completion
    validate_cpu: float = 0.30e-6       # checksum + key comparison
    validate_per_kb: float = 0.045e-6
    quorum_cpu: float = 0.12e-6         # evaluate votes
    mutation_cpu: float = 0.60e-6       # build mutation RPCs


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
    health: HealthPolicy = field(default_factory=HealthPolicy)
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
    compression_min_bytes: int = 512
    costs: ClientCostModel = field(default_factory=ClientCostModel)

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
        if self.compression_min_bytes < 0:
            raise CliqueMapError(
                "ClientConfig.compression_min_bytes must be >= 0, "
                f"got {self.compression_min_bytes!r}")


@dataclass
class OpResult:
    """Common shape of every client operation outcome.

    :class:`GetResult` and :class:`MutationResult` share this surface:
    a ``status`` enum, the end-to-end simulated ``latency``, how many
    ``attempts`` the layered retry machinery used, an ``error`` reason
    string for terminal failures, and — when tracing is enabled — the
    operation's :class:`~repro.telemetry.TraceContext` in ``trace``.

    ``source`` says which tier produced a read's answer: ``"cache"``
    (the CliqueMap tier, the only source without an attached SoR),
    ``"sor"`` (resolved by the read-through miss pipeline), or
    ``"negative"`` (a remembered-absent entry short-circuited the SoR).
    """

    status: object
    latency: float = 0.0
    attempts: int = 1
    error: Optional[str] = None
    trace: Optional[TraceContext] = None
    source: str = "cache"

    @property
    def ok(self) -> bool:
        """True unless the operation terminally failed."""
        return self.status not in (GetStatus.ERROR, SetStatus.FAILED)


@dataclass
class GetResult(OpResult):
    """Outcome of one GET."""

    status: GetStatus = GetStatus.ERROR
    value: Optional[bytes] = None
    version: Optional[VersionNumber] = None

    @property
    def hit(self) -> bool:
        return self.status is GetStatus.HIT


@dataclass
class MutationResult(OpResult):
    """Outcome of a SET/ERASE/CAS."""

    status: SetStatus = SetStatus.FAILED
    version: Optional[VersionNumber] = None
    replicas_applied: int = 0
    stored_version: Optional[VersionNumber] = None


@dataclass
class BackendView:
    """Connection-time metadata for one backend task (§3).

    Liveness is delegated to a :class:`~repro.core.resilience.
    BackendHealth` scoreboard: ``healthy`` (kept as a read-only property
    for compatibility) now means *connected and not quarantined*, so a
    flapping replica is excluded from the read cohort for a cooldown
    instead of toggling a binary flag on every error.
    """

    task: str
    host_name: str
    channel: RpcChannel
    health: BackendHealth
    config_id: int = 0
    index_region_id: int = 0
    num_buckets: int = 0
    ways: int = 0
    bucket_bytes: int = 0
    data_region_id: int = 0

    @property
    def healthy(self) -> bool:
        return self.health.available()


class _AttemptRetry(Exception):
    """Internal: this attempt failed; retry after the indicated recovery."""

    def __init__(self, reason: str, refresh_config: bool = False,
                 stale_tasks: Tuple[str, ...] = ()):
        super().__init__(reason)
        self.reason = reason
        self.refresh_config = refresh_config
        self.stale_tasks = stale_tasks


def _parent_span(trace):
    """Normalize a ``trace=`` argument (TraceContext | Span | None) to
    the parent span it designates, or None for an unparented op."""
    if trace is None:
        return None
    if isinstance(trace, TraceContext):
        return trace.root
    return trace


# Read-through coordinator fetch status -> the GET's ``(status, source,
# error)``, for a singleton and for a key of a batch alike.
_SOR_OUTCOME = {
    "hit": (GetStatus.HIT, "sor", None),
    "miss": (GetStatus.MISS, "sor", None),
    "negative": (GetStatus.MISS, "negative", None),
    "shed": (GetStatus.MISS, "sor", "sor-backfill-shed"),
    "error": (GetStatus.MISS, "sor", "sor-fetch-failed"),
}


class CliqueMapClient:
    """One application client of a CliqueMap cell."""

    def __init__(self, sim: Simulator, fabric: Fabric, host: Host,
                 cell_name: str, config_store: ConfigStore,
                 directory: Callable[[str], object],
                 transport: Transport,
                 principal: Optional[Principal] = None,
                 strategy: Optional[GetStrategy] = None,
                 config: Optional[ClientConfig] = None,
                 truetime: Optional[TrueTime] = None,
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
        self.truetime = truetime or TrueTime(sim)
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
                             policy=self.config.health,
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
            if view.healthy:
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
            if view is not None and view.healthy:
                views.append(view)
        return views

    def _shadow_mutate(self, view: BackendView, method: str, payload: dict,
                       payload_size: int) -> None:
        """Fire-and-forget one shadow mutation at a target-cohort task.

        Shadows never count toward the quorum (acks come only from the
        authoritative cohort) and never block the foreground op; a lost
        shadow is caught by the post-cutover reconcile sweep. It starts
        one zero-delay hop from now, as a process of its own would.
        """

        def landed(_reply, exc: Optional[BaseException]) -> None:
            self._shadows[method, "ok" if exc is None else "error"] += 1

        self.sim.call_soon(view.channel.start, method, payload,
                           self.config.mutation_rpc_deadline, landed,
                           payload_size)

    # ------------------------------------------------------------------
    # GET
    # ------------------------------------------------------------------

    def get(self, key: bytes, deadline: Optional[float] = None,
            trace=None) -> Generator:
        """Look up a key; retries transparently, returns a GetResult.

        ``trace`` (a :class:`TraceContext` or :class:`Span`, optional)
        parents this op's span tree under an enclosing operation — a
        federated fan-out or a WAN gateway serve — instead of starting
        a standalone root.
        """
        started = self.sim.now
        deadline_at = started + (deadline or self.config.default_deadline)
        key_hash = self.placement.key_hash(key)
        root = self.tracer.start("get", parent=_parent_span(trace),
                                 client=self.client_id,
                                 strategy=self.strategy.value)
        outcome, attempts, reason = yield from self._run_op(
            "get", root, deadline_at,
            lambda attempt: self._attempt(key, key_hash, deadline_at, root,
                                          attempt),
            lambda retry: self._recover_get(retry, key_hash))
        status, value, version = outcome or (GetStatus.ERROR, None, None)
        if status is GetStatus.MISS and self.read_through is not None and \
                self.read_through.policy.read_through:
            return (yield from self._read_through_miss(
                key, attempts, started, root))
        latency = self.sim.now - started
        if outcome is None:
            root.annotate(error=reason)
        root.finish()  # at the same instant latency is measured
        if status is GetStatus.HIT:
            self._note_touch(key_hash)
            value = yield from self._decode_value(value)
        return GetResult(status, value=value, version=version,
                         attempts=attempts, latency=latency, error=reason,
                         trace=self._finish_op("get", status.value, latency,
                                               root))

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

    def _read_through_miss(self, key: bytes, attempts: int, started: float,
                           root) -> Generator:
        """Resolve a cache MISS through the attached SoR coordinator.

        A fetched value is returned as a HIT with ``source="sor"`` (the
        coordinator fills the cache in the background, so the *next*
        read is a plain cache hit); an authoritative or remembered
        absence stays a MISS with the source telling the tiers apart.
        """
        span = root.child("sor.fetch")
        fetched, value = yield from self.read_through.fetch(key)
        span.annotate(result=fetched).finish()
        latency = self.sim.now - started
        root.finish()
        status, source, error = self._sor_outcome(fetched)
        return GetResult(status, value=value, attempts=attempts,
                         latency=latency, source=source, error=error,
                         trace=self._finish_op("get", status.value, latency,
                                               root))

    def _sor_outcome(self, fetched: str):
        """A coordinator fetch status as a GET's ``(status, source,
        error)``; counts the SoR hit."""
        if fetched == "hit":
            self._counts["sor_hits"] += 1
        return _SOR_OUTCOME[fetched]

    def _read_through_multi(self, keys: List[bytes],
                            results: List["GetResult"], root) -> Generator:
        """Drive leftover batch MISSes through the miss pipeline.

        The batched fast path settles against the cache tier only and
        leaves its read-through MISSes unbooked; this pass fans them out
        to the coordinator (single-flight dedupes same-key siblings),
        upgrades resolved entries in place and books each key once,
        with its final status and a latency that includes the SoR
        fetch — exactly what a singleton :meth:`get` books.
        """
        fetches = self.sim.fan_in()
        for i, result in enumerate(results):
            if result.status is GetStatus.MISS and result.source == "cache":
                fetches.spawn(self.read_through.fetch(keys[i]), result)
        t0 = self.sim.now
        while fetches.pending:
            result, outcome = yield fetches.next()
            fetched, result.value = outcome
            result.latency += self.sim.now - t0
            result.status, result.source, result.error = \
                self._sor_outcome(fetched)
            result.trace = self._finish_op("get", result.status.value,
                                           result.latency, root,
                                           batched=True)

    def get_multi(self, keys: List[bytes],
                  deadline: Optional[float] = None) -> Generator:
        """Batched lookup; returns a result list aligned with ``keys``.

        On RMA strategies (2xR/SCAR) the batch takes the wire-level fast
        path (§7.1): keys are grouped by replica backend, each backend
        gets *one* coalesced index fetch carrying every wanted bucket
        address, quorum is evaluated per key over the scattered votes,
        and data is fetched per key from its first responder. Keys the
        fast path cannot settle — inquorate, stale view, failed
        validation, a quarantined cohort — fall back to the singleton
        :meth:`get` retry machinery *individually*, so one poisoned or
        slow key never aborts its batch siblings. Every other batch
        (MSG, RPC, R=2/Immutable) is a parallel fan-out of singleton
        GETs.
        """
        if not keys:
            return []
        if len(keys) >= 2 and self.cell is not None and \
                self.strategy in (GetStrategy.TWO_R, GetStrategy.SCAR) and \
                self.transport is not None and \
                self.cell.mode is not ReplicationMode.R2_IMMUTABLE:
            return (yield from self._batched_get_multi(keys, deadline))
        return (yield from self._fanout(
            [self.get(key, deadline) for key in keys],
            self._get_error_result))

    def _fanout(self, ops, on_error) -> Generator:
        """Run singleton ops in parallel, with per-key failure isolation."""
        results = yield self.sim.all_of(
            [self.sim.process(self._isolate(op, on_error)) for op in ops])
        return results

    @staticmethod
    def _get_error_result(exc: Exception) -> "GetResult":
        return GetResult(GetStatus.ERROR,
                         error=f"unhandled-{type(exc).__name__}")

    @staticmethod
    def _mutation_error_result(exc: Exception) -> "MutationResult":
        return MutationResult(SetStatus.FAILED,
                              error=f"unhandled-{type(exc).__name__}")

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

    def _batched_get_multi(self, keys: List[bytes],
                           deadline: Optional[float]) -> Generator:
        """The wire-level batched GET path (§7.1)."""
        started = self.sim.now
        deadline_at = started + (deadline or self.config.default_deadline)
        n = len(keys)
        quorum = self.cell.mode.quorum
        self._h_batch_size_get.observe(n)
        root = self.tracer.start("get_multi", client=self.client_id, batch=n)

        key_hashes = [self.placement.key_hash(key) for key in keys]
        results: List[Optional[GetResult]] = [None] * n
        fallback: Dict[int, str] = {}
        # Primary/backup ablation: each key awaits its logical primary.
        force_primary = self.config.force_primary_data_fetch

        # One ballot per key, and every (key, bucket address) grouped by
        # backend task so each backend serves exactly one coalesced fetch
        # for the whole batch.
        cohorts: List[List[BackendView]] = []
        ballots: List[Ballot] = []
        per_view: Dict[str, List[Tuple[int, int]]] = {}
        for i, key_hash in enumerate(key_hashes):
            views = self._replica_views(key_hash)
            cohorts.append(views)
            ballots.append(Ballot(
                key_hash, len(views), quorum,
                views[0].task if force_primary and views else None))
            if len(views) < quorum:
                fallback[i] = "no-healthy-replicas"
                continue
            for view in views:
                _bucket, offset = self._bucket_location(view, key_hash)
                per_view.setdefault(view.task, []).append((i, offset))

        index_span = root.child("index", batch=n, backends=len(per_view))
        # One completion queue per phase: a speculative data fetch can
        # land while index legs are still draining.
        index_legs = self.sim.fan_in()
        for task, entries in per_view.items():
            view = self._views[task]
            index_legs.spawn(self._fetch_index_batch(
                view, [offset for _i, offset in entries], index_span),
                (view, entries))
        data_legs = self.sim.fan_in()

        # Drain the coalesced index fetches as they land, casting each
        # entry into its key's ballot so the data fetch starts the
        # instant the key's first responders agree. Votes landing after
        # a key settled are still cast (and their quorum CPU charged):
        # their stale / config flags steer the batch's recovery.
        while index_legs.pending:
            (view, entries), items = yield index_legs.next()
            if isinstance(items, tuple):  # the whole leg failed as one
                items = [items] * len(entries)
            for (i, _offset), item in zip(entries, items):
                ballot = ballots[i]
                was_settled = ballot.settled
                ballot.cast(view.task, item)
                self.host.charge_inline(self.config.costs.quorum_cpu,
                                        "cliquemap-client")
                if ballot.settled and not was_settled and \
                        ballot.decision.outcome is QuorumOutcome.PRESENT:
                    # Speculative: this key's data fetch starts while
                    # sibling index fetches are still draining, so it is
                    # recorded under the phase that initiated it — the
                    # phase spans themselves stay contiguous.
                    source = ballot.source()
                    data_legs.spawn(self._fetch_data(
                        self._views[source.task], source.entry, index_span),
                        (i, source.task))
        index_span.finish()
        # The data phase starts at the simulated instant the index phase
        # ends, so index.duration + data.duration == op latency (the PR 1
        # sum-invariant, kept for the batched path).
        data_span = root.child("data", batch=n)
        rt = self.read_through
        reads_through = rt is not None and rt.policy.read_through

        def finish_key(i: int, status: GetStatus, value=None,
                       version=None) -> Generator:
            if status is GetStatus.HIT:
                self._note_touch(key_hashes[i])
                value = yield from self._decode_value(value)
            latency = self.sim.now - started
            results[i] = GetResult(status, value=value, version=version,
                                   latency=latency)
            if status is not GetStatus.MISS or not reads_through:
                # A read-through MISS is booked once, by the miss
                # pipeline, with its final status (a singleton's rule).
                results[i].trace = self._finish_op(
                    "get", status.value, latency, root, batched=True)

        # Every asked replica's vote is in (each leg yields one outcome
        # per entry), so a key no vote settled has no quorum: it falls
        # back. Misses finish here.
        overflow_legs = self.sim.fan_in()
        for i, ballot in enumerate(ballots):
            if i in fallback:
                continue
            if not ballot.settled:
                fallback[i] = ballot.hazard()
            elif ballot.decision.outcome is QuorumOutcome.PRESENT:
                continue  # data fetch in flight
            elif self.config.overflow_rpc_lookup and ballot.overflow:
                overflow_legs.spawn(self._isolate(
                    self._maybe_overflow_lookup(
                        keys[i], cohorts[i], True, root),
                    lambda _exc: (GetStatus.MISS, None, None)), i)
            else:
                yield from finish_key(i, GetStatus.MISS)

        while data_legs.pending:
            (i, task), outcome = yield data_legs.next()
            try:
                status, value, version = self._validate_data(
                    keys[i], key_hashes[i], outcome, ballots[i], task)
            except _AttemptRetry as retry:
                fallback[i] = retry.reason
                continue
            yield from finish_key(i, status, value, version)
        data_span.finish()

        while overflow_legs.pending:
            i, outcome = yield overflow_legs.next()
            yield from finish_key(i, *outcome)

        yield from self._finish_batch(
            "get_multi", root, results, fallback, started, deadline_at,
            lambda i, remaining: self.get(keys[i], remaining),
            self._get_error_result,
            refresh_config=any(ballots[i].config_mismatch for i in fallback),
            stale_tasks=dict.fromkeys(
                task for i in fallback for task in ballots[i].stale))
        if reads_through:
            yield from self._read_through_multi(keys, results, root)
        return results

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

    def _fetch_index_batch(self, view: BackendView, offsets: List[int],
                           trace=NULL_SPAN) -> Generator:
        """One coalesced index fetch; per-entry tagged outcomes.

        Returns a list aligned with ``offsets`` of the same tuples
        :meth:`_fetch_index` produces, ready to cast into each key's
        ballot — or, when the whole batch failed in transport, the
        single ``stale``/``down`` tuple every entry shares. Never raises.
        """
        def issue():
            span = trace.child("transport.read_multi", task=view.task,
                               kind="index", batch=len(offsets))
            return span, self.transport.read_multi(
                self.host, view.host_name,
                [(view.index_region_id, offset, view.bucket_bytes)
                 for offset in offsets], trace=span)

        def per_entry(view: BackendView, raw_items) -> list:
            # Exceptions-as-values: one entry's failure spares the rest.
            return [
                ("stale" if isinstance(raw, RegionRevokedError) else "down",
                 view.task, None) if isinstance(raw, RmaError)
                else self._bucket_outcome(view, raw) for raw in raw_items]

        return self._rma_leg(view, issue, per_entry)

    # -- one attempt ---------------------------------------------------------

    def _attempt(self, key: bytes, key_hash: bytes, deadline_at: float,
                 span=NULL_SPAN, attempt: int = 1) -> Generator:
        """Pick this client's lookup strategy; returns its attempt
        generator (or raises ``_AttemptRetry`` when no cohort serves)."""
        if self.strategy is GetStrategy.RPC:
            return self._attempt_rpc(key, key_hash, deadline_at, span,
                                     attempt)
        if self.strategy is GetStrategy.MSG:
            return self._attempt_msg(key, key_hash, span, attempt)
        views = self._replica_views(key_hash)
        quorum = self.cell.mode.quorum
        if len(views) < quorum:
            raise _AttemptRetry("no-healthy-replicas")
        if self.cell.mode is ReplicationMode.R2_IMMUTABLE:
            return self._attempt_serial(key, key_hash, views, span, attempt)
        if self.strategy is GetStrategy.SCAR:
            return self._attempt_scar(key, key_hash, views, quorum, span,
                                      attempt)
        return self._attempt_2xr(key, key_hash, views, quorum, span,
                                 attempt)

    def _collect_votes(self, fetch, key_hash: bytes,
                       views: List[BackendView], quorum: int, span,
                       on_vote=None, await_task: Optional[str] = None
                       ) -> Generator:
        """Fan ``fetch`` out to every replica; quorum the votes (§5.1).

        Casts each leg into one :class:`Ballot` as it lands and stops
        when the ballot settles, abandoning slower legs.
        ``on_vote(view, vote, result)`` sees each vote before its quorum
        CPU is charged. Finishes ``span``; returns the settled ballot, or
        raises :class:`_AttemptRetry` for the hazard of an unsettled one.
        """
        ballot = Ballot(key_hash, len(views), quorum, await_task)
        legs = self.sim.fan_in()
        for view in views:
            legs.spawn(fetch(view, key_hash, span), view)
        while legs.pending:
            view, result = yield legs.next()
            vote = ballot.cast(view.task, result)
            if on_vote is not None:
                on_vote(view, vote, result)
            self.host.charge_inline(self.config.costs.quorum_cpu,
                                    "cliquemap-client")
            if ballot.settled:
                break
        ballot.close()
        span.finish()  # quorum settled: the index phase is over
        if not ballot.settled:
            raise _AttemptRetry(ballot.hazard(),
                                refresh_config=ballot.config_mismatch,
                                stale_tasks=tuple(ballot.stale))
        return ballot

    def _attempt_2xr(self, key: bytes, key_hash: bytes,
                     views: List[BackendView], quorum: int,
                     span=NULL_SPAN, attempt: int = 1) -> Generator:
        """Index fetch from all replicas; data from the first responder.

        Phase spans (``index`` → ``data`` → ``validate``) are contiguous:
        each starts the simulated instant the previous one ends, so their
        durations sum to the attempt's share of the op latency.
        """
        index_span = span.child("index", attempt=attempt)
        # Primary/backup ablation: speculate on, and await, the logical
        # primary instead of the first responder.
        primary = views[0].task if self.config.force_primary_data_fetch \
            else None
        preferred_task: Optional[str] = None
        data_proc = None
        data_task: Optional[str] = None

        def speculate(view: BackendView, vote: ReplicaVote, _result) -> None:
            nonlocal preferred_task, data_proc, data_task
            if preferred_task is None and vote.kind is not VoteKind.ERROR \
                    and (primary is None or view.task == primary):
                preferred_task = view.task
                if vote.kind is VoteKind.PRESENT:
                    # Speculative data fetch from the first responder (or
                    # from the logical primary under the ablation). Its
                    # transport span lands under the *index* phase — the
                    # phase that initiated the speculation.
                    data_proc = self.sim.process(
                        self._fetch_data(view, vote.entry, index_span))
                    data_task = view.task

        ballot = yield from self._collect_votes(
            self._fetch_index, key_hash, views, quorum, index_span,
            speculate, primary)

        if ballot.decision.outcome is QuorumOutcome.ABSENT:
            if data_proc is not None:
                data_proc.defused = True
            return (yield from self._maybe_overflow_lookup(
                key, views, ballot.overflow, span, attempt))

        # PRESENT: the data must come from a quorum member at the quorumed
        # version (§5.1 condition 4) — the ballot's source. A speculation
        # that landed in the quorum already is that replica's fetch.
        data_span = span.child("data", attempt=attempt)
        source = ballot.source()
        if data_task != source.task:
            if data_proc is not None:
                data_proc.defused = True  # speculation failed; ignore it
            data_task = source.task
            data_proc = self.sim.process(self._fetch_data(
                next(view for view in views if view.task == data_task),
                source.entry, data_span))
        result = yield data_proc
        data_span.finish()
        validate_span = span.child("validate", attempt=attempt)
        try:
            return self._validate_data(key, key_hash, result, ballot,
                                       data_task)
        finally:
            validate_span.finish()

    def _attempt_scar(self, key: bytes, key_hash: bytes,
                      views: List[BackendView], quorum: int,
                      span=NULL_SPAN, attempt: int = 1) -> Generator:
        """SCAR to all replicas: one round trip, three full data copies."""
        data_by_task: Dict[str, Optional[bytes]] = {}

        def keep_copy(view: BackendView, vote: ReplicaVote, result) -> None:
            if vote.kind is VoteKind.PRESENT:
                data_by_task[view.task] = result[3]

        ballot = yield from self._collect_votes(
            self._fetch_scar, key_hash, views, quorum,
            span.child("index", attempt=attempt, op="scar"), keep_copy)
        decision = ballot.decision

        if decision.outcome is QuorumOutcome.ABSENT:
            return (yield from self._maybe_overflow_lookup(
                key, views, ballot.overflow, span, attempt))

        # Prefer validating a copy fetched from a quorum member.
        validate_span = span.child("validate", attempt=attempt)
        for task in decision.members:
            raw = data_by_task.get(task)
            if raw is None:
                continue
            outcome = self._try_validate(key, key_hash, raw, decision)
            yield from self._charge_validation(raw)
            if outcome is not None:
                validate_span.finish()
                return outcome
        validate_span.finish()
        # No SCAR copy validated. If the NIC-side scan followed a pointer
        # into a superseded (reshaped) window it returns the bucket only;
        # fall back to a client-side data fetch, which can converge to the
        # currently-advertised window.
        source = ballot.source()
        data_span = span.child("data", attempt=attempt)
        result = yield from self._fetch_data(
            next(view for view in views if view.task == source.task),
            source.entry, data_span)
        data_span.finish()
        return self._validate_data(key, key_hash, result, ballot,
                                   source.task)

    def _attempt_serial(self, key: bytes, key_hash: bytes,
                        views: List[BackendView], span=NULL_SPAN,
                        attempt: int = 1) -> Generator:
        """R=1 / R=2-immutable: consult one replica, fall back on failure."""
        last_reason = "no-healthy-replicas"
        for view in views:
            index_span = span.child("index", attempt=attempt, task=view.task)
            result = yield from self._fetch_index(view, key_hash, index_span)
            index_span.finish()
            ballot = Ballot(key_hash, 1, 1)  # each replica decides alone
            vote = ballot.cast(view.task, result)
            if ballot.config_mismatch:
                raise _AttemptRetry("config-mismatch", refresh_config=True)
            if vote.kind is VoteKind.ERROR:
                last_reason = "replica-error"
                continue
            if vote.kind is VoteKind.ABSENT:
                return (yield from self._maybe_overflow_lookup(
                    key, [view], ballot.overflow, span, attempt))
            data_span = span.child("data", attempt=attempt, task=view.task)
            data_result = yield from self._fetch_data(view, vote.entry,
                                                      data_span)
            data_span.finish()
            try:
                return self._validate_data(key, key_hash, data_result,
                                           ballot, view.task)
            except _AttemptRetry as retry:
                last_reason = retry.reason
                continue
        raise _AttemptRetry(last_reason)

    def _attempt_msg(self, key: bytes, key_hash: bytes, span=NULL_SPAN,
                     attempt: int = 1) -> Generator:
        """Two-sided messaging lookup through the software NIC (Fig 7).

        Cheaper than a full RPC, but wakes a server application thread —
        the CPU cost SCAR exists to avoid (§6.3).
        """
        views = self._replica_views(key_hash)
        if not views:
            raise _AttemptRetry("no-healthy-replicas")
        for view in views:
            def issue():
                msg_span = span.child("transport.message", attempt=attempt,
                                      task=view.task)
                return msg_span, self.transport.message(
                    self.host, view.host_name, "cliquemap-lookup",
                    len(key) + 64, {"key": key}, trace=msg_span)

            kind, _task, reply = yield from self._rma_leg(view, issue)
            if kind == "stale":  # no lookup handler: the task is not serving
                self._leg_down(view)
            if kind == "ok":
                return self._lookup_outcome(reply, key)
        raise _AttemptRetry("replica-down")

    def _attempt_rpc(self, key: bytes, key_hash: bytes, deadline_at: float,
                     span=NULL_SPAN, attempt: int = 1) -> Generator:
        """Two-sided lookup via the RPC framework (WAN / fallback)."""
        views = self._replica_views(key_hash)
        if not views:
            raise _AttemptRetry("no-healthy-replicas")
        for view in views:
            lookup_span = span.child("rpc.lookup", attempt=attempt,
                                     task=view.task)
            try:
                reply = yield from view.channel.call(
                    "Lookup", {"key": key},
                    deadline=max(1e-6, deadline_at - self.sim.now),
                    trace=lookup_span)
            except RpcError:
                continue
            finally:
                lookup_span.finish()
            return self._lookup_outcome(reply)
        raise _AttemptRetry("rpc-replicas-unavailable")

    @staticmethod
    def _lookup_outcome(reply: dict, key: Optional[bytes] = None):
        """A two-sided lookup reply as ``(status, value, version)``.
        ``key`` is MSG's guard against a 128-bit hash collision: the
        reply must carry the key that was asked for."""
        if not reply.get("found") or \
                (key is not None and reply.get("key") != key):
            return GetStatus.MISS, None, None
        return (GetStatus.HIT, reply["value"],
                VersionNumber.unpack(reply["version"]))

    # -- fetch helpers ---------------------------------------------------------

    def _leg_down(self, view: BackendView) -> None:
        """One RMA leg (or mutation RPC) found the backend unreachable.

        Recorded at the leg, not at vote collection: once a quorum
        settles, the losing legs are abandoned — but a gray (lossy)
        replica's failures must still feed the health scoreboard or it
        never trips quarantine while the quorum keeps masking it.
        """
        view.health.mark_down()
        self._start_reconnect(view.task)

    def _bucket_location(self, view: BackendView,
                         key_hash: bytes) -> Tuple[int, int]:
        bucket = int.from_bytes(key_hash[:8], "little") % view.num_buckets
        return bucket, bucket * view.bucket_bytes

    def _rma_leg(self, view: BackendView,
                 issue: Callable[[], Tuple[object, Generator]],
                 outcome: Optional[Callable[[BackendView, object],
                                            object]] = None,
                 reissue: Optional[Callable[[object],
                                            Optional[Generator]]] = None
                 ) -> Generator:
        """One transport op of a lookup leg — the body of its process.

        ``issue()`` opens the leg's span and returns it with the
        transport generator to run; this charges issue and completion
        CPU around it and feeds the health scoreboard. Never raises:
        returns ``("stale", task, None)`` when the region was revoked,
        ``("down", task, None)`` when the replica was unreachable, else
        ``outcome(view, payload)`` — by default ``("ok", task, payload)``.
        ``reissue(span)`` may offer one replacement op after a revoked
        region. (The fetchers below *return* this generator rather than
        delegate to it: a leg is resumed once per transport event, and
        every resume walks the whole ``yield from`` chain.)
        """
        costs = self.config.costs
        self.host.charge_inline(costs.issue_op_cpu, "cliquemap-client")
        span, op = issue()
        try:
            try:
                payload = yield from op
            except RegionRevokedError:
                again = reissue(span) if reissue is not None else None
                if again is None:
                    raise
                payload = yield from again
        except RegionRevokedError:
            span.annotate(outcome="stale").finish()
            return ("stale", view.task, None)
        except (RemoteHostDownError, RmaError, NetworkDropError):
            span.annotate(outcome="down").finish()
            self._leg_down(view)
            return ("down", view.task, None)
        span.finish()
        self.host.charge_inline(costs.completion_cpu, "cliquemap-client")
        view.health.record_success()
        if outcome is not None:
            return outcome(view, payload)
        return ("ok", view.task, payload)

    @staticmethod
    def _bucket_outcome(view: BackendView, raw: bytes, *extra) -> tuple:
        """Self-validate a fetched bucket's header (§3, §6.1); ``extra``
        (SCAR's datum) rides along on an ``ok`` outcome."""
        parsed = parse_bucket(raw, view.ways)
        if not parsed.magic_ok:
            return ("stale", view.task, None)
        if parsed.config_id != view.config_id:
            return ("config", view.task, parsed.config_id)
        return ("ok", view.task, parsed) + extra

    def _fetch_index(self, view: BackendView, key_hash: bytes,
                     trace=NULL_SPAN) -> Generator:
        """RMA-read one bucket; returns a tagged outcome tuple (never raises)."""
        def issue():
            span = trace.child("transport.read", task=view.task, kind="index")
            return span, self.transport.read(
                self.host, view.host_name, view.index_region_id,
                self._bucket_location(view, key_hash)[1], view.bucket_bytes,
                trace=span)

        return self._rma_leg(view, issue, self._bucket_outcome)

    def _fetch_scar(self, view: BackendView, key_hash: bytes,
                    trace=NULL_SPAN) -> Generator:
        """SCAR one bucket; an ``ok`` outcome also carries the datum."""
        def issue():
            span = trace.child("transport.scar", task=view.task)
            return span, self.transport.scar(
                self.host, view.host_name, view.index_region_id,
                self._bucket_location(view, key_hash)[1], view.bucket_bytes,
                key_hash, trace=span)

        return self._rma_leg(
            view, issue, lambda view, raws: self._bucket_outcome(view, *raws))

    def _fetch_data(self, view: BackendView, entry,
                    trace=NULL_SPAN) -> Generator:
        """RMA-read one DataEntry through the window its pointer names."""
        def read(region_id: int, span) -> Generator:
            return self.transport.read(
                self.host, view.host_name, region_id, entry.offset,
                entry.size, trace=span)

        def issue():
            span = trace.child("transport.read", task=view.task, kind="data")
            return span, read(entry.region_id, span)

        def current_window(span) -> Optional[Generator]:
            # The entry's window was superseded by a data-region
            # reshape. Windows overlap the same virtually-contiguous
            # pool (§4.1), so the offset is still valid through the
            # currently-advertised window — converge to it, perhaps
            # after a view refresh.
            if view.data_region_id != entry.region_id:
                return read(view.data_region_id, span)

        return self._rma_leg(view, issue, reissue=current_window)

    # -- vote/validation helpers ------------------------------------------------

    def _charge_validation(self, raw: bytes) -> Generator:
        cost = self.config.costs
        yield self.host.execute(
            cost.validate_cpu + len(raw) / 1024.0 * cost.validate_per_kb,
            "cliquemap-client")

    def _try_validate(self, key: bytes, key_hash: bytes, raw: bytes,
                      decision: QuorumDecision):
        """Full §5.1 validation; returns a result tuple or None."""
        entry = try_decode(raw)
        if entry is None:
            self._counts["torn_reads"] += 1    # structurally torn
            return None
        if not entry.checksum_ok(key_hash):
            self._counts["torn_reads"] += 1    # torn read
            return None
        if entry.key != key:
            return GetStatus.MISS, None, None  # 128-bit hash collision
        if decision.version is not None and entry.version != decision.version:
            self._counts["version_races"] += 1  # raced a newer mutation
            return None
        return GetStatus.HIT, entry.value, entry.version

    def _validate_data(self, key: bytes, key_hash: bytes, result,
                       ballot: Ballot, data_task: str):
        """Validate the data leg fetched from ``data_task`` against the
        ballot's decision; raises for the hazard when it does not hold."""
        kind = result[0]
        if kind == "stale":
            raise _AttemptRetry("stale-view", stale_tasks=(data_task,))
        if kind == "down":
            raise _AttemptRetry("replica-down")
        raw = result[2]
        outcome = self._try_validate(key, key_hash, raw, ballot.decision)
        if outcome is None:
            raise _AttemptRetry("validation-torn-or-stale",
                                stale_tasks=tuple(ballot.stale))
        return outcome

    def _maybe_overflow_lookup(self, key: bytes, views: List[BackendView],
                               overflow_seen: bool, span=NULL_SPAN,
                               attempt: int = 1) -> Generator:
        """On a miss under an overflowed bucket, optionally try RPC (§4.2)."""
        if self.config.overflow_rpc_lookup and overflow_seen:
            self._counts["overflow_lookups"] += 1
            overflow_span = span.child("rpc.overflow", attempt=attempt)
            try:
                for view in views:
                    try:
                        reply = yield from view.channel.call(
                            "Lookup", {"key": key},
                            deadline=self.config.mutation_rpc_deadline,
                            trace=overflow_span)
                    except RpcError:
                        continue
                    outcome = self._lookup_outcome(reply)
                    if outcome[0] is GetStatus.HIT:
                        return outcome
            finally:
                overflow_span.finish()
        return GetStatus.MISS, None, None

    # ------------------------------------------------------------------
    # Transparent value compression (§9)
    # ------------------------------------------------------------------

    _RAW = b"\x00"
    _ZLIB = b"\x01"

    def _encode_value(self, value: bytes) -> Generator:
        """Wrap (and maybe compress) a value for storage."""
        if not self.config.compression_enabled:
            return value
        if len(value) >= self.config.compression_min_bytes:
            yield self.host.execute(
                len(value) / 1024.0 * _COMPRESS_CPU_PER_KB, "cliquemap-client")
            compressed = zlib.compress(value)
            if len(compressed) < len(value):
                return self._ZLIB + compressed
        return self._RAW + value

    def _decode_value(self, stored: Optional[bytes]) -> Generator:
        """Unwrap a stored value; inverse of :meth:`_encode_value`."""
        if not self.config.compression_enabled or stored is None:
            return stored
        if not stored:
            return stored
        scheme, body = stored[:1], stored[1:]
        if scheme == self._ZLIB:
            yield self.host.execute(
                len(body) / 1024.0 * _DECOMPRESS_CPU_PER_KB,
                "cliquemap-client")
            return zlib.decompress(body)
        return body

    # ------------------------------------------------------------------
    # Mutations (§5.2)
    # ------------------------------------------------------------------

    def _note_sor_write(self, key: bytes,
                        value: Optional[bytes]) -> Generator:
        """Propagate an acknowledged mutation to the SoR (write-behind).

        Values are noted *raw* (pre-compression): the SoR stores
        application bytes, and a later read-through fill re-encodes
        them under the filling client's corpus convention. ``None``
        notes an erase (a delete marker flushes to the SoR). When the
        dirty buffer is full the write degrades to synchronous
        write-through instead of being dropped.
        """
        rt = self.read_through
        if rt is None:
            return
        if not rt.note_write(key, value):
            yield from rt.write_through(key, value)

    def set(self, key: bytes, value: bytes,
            deadline: Optional[float] = None, trace=None) -> Generator:
        """SET via RPC to all replicas with a fresh VersionNumber."""
        started = self.sim.now
        root = self.tracer.start("set", parent=_parent_span(trace),
                                 client=self.client_id)
        encoded = yield from self._encode_value(value)
        return (yield from self._mutate_op(
            "set", "Set", key, {"key": key, "value": encoded},
            len(key) + len(encoded) + 64, value, started, deadline, root))

    def _mutate_op(self, op: str, method: str, key: bytes, payload: dict,
                   payload_size: int, sor_value: Optional[bytes],
                   started: float, deadline: Optional[float],
                   root) -> Generator:
        """SET/ERASE under the op engine: each attempt nominates a fresh
        VersionNumber and needs a quorum of replicas to apply it (§5.2).

        ``sor_value`` is what an acknowledged mutation notes for
        write-behind: the raw value for SET, None for ERASE.
        """
        deadline_at = started + (deadline or self.config.default_deadline)
        quorum = self.cell.mode.quorum
        last = MutationResult(SetStatus.FAILED)

        def attempt(n: int) -> Generator:
            nonlocal last
            version = self.versions.next()
            replies = yield from self._mutate_all(
                method, dict(payload, version=version.pack()),
                self.placement.key_hash(key), payload_size, root, n)
            status, applied = self._tally(replies, quorum)
            result = MutationResult(
                status, version=version, replicas_applied=applied,
                latency=self.sim.now - started, attempts=n)
            if status is SetStatus.FAILED:
                last = result
                raise _AttemptRetry("inquorate")
            return result

        result, _attempts, reason = yield from self._run_op(
            op, root, deadline_at, attempt)
        root.finish()
        if result is None:
            result = last
            if reason == "budget-exhausted":
                result.error = reason
        elif result.status is SetStatus.APPLIED:
            # Acked at quorum: the SoR learns of it via write-behind (or
            # a sync write-through when the buffer is full); the op's
            # acknowledged latency is the cache-tier latency.
            yield from self._note_sor_write(key, sor_value)
        result.trace = self._finish_op(op, result.status.value,
                                       result.latency, root)
        return result

    @staticmethod
    def _tally(replies, quorum: int) -> Tuple[SetStatus, int]:
        """Settle one key's mutation over its replica replies (§5.2):
        APPLIED or SUPERSEDED when a quorum says so, FAILED (inquorate)
        otherwise — with how many replicas applied it."""
        applied = superseded = 0
        for reply in replies:
            if reply is None:
                continue
            if reply.get("applied"):
                applied += 1
            elif reply.get("reason") == "superseded":
                superseded += 1
        if applied >= quorum:
            return SetStatus.APPLIED, applied
        if superseded >= quorum:
            return SetStatus.SUPERSEDED, applied
        return SetStatus.FAILED, applied

    def set_multi(self, items: List[Tuple[bytes, bytes]],
                  deadline: Optional[float] = None) -> Generator:
        """Batched SETs; returns a result list aligned with ``items``.

        Mutations to the same backend coalesce into one multi-entry
        ``MultiSet`` RPC (backfill jobs depend on this, §7.1): the RPC
        dispatch and the client's mutation CPU are paid once per
        (backend, batch) instead of once per key. Quorum is still counted
        per key, and keys that miss quorum retry through the singleton
        :meth:`set` path without disturbing their siblings.
        """
        if not items:
            return []
        if len(items) < 2 or self.cell is None:
            return (yield from self._fanout(
                [self.set(key, value, deadline) for key, value in items],
                self._mutation_error_result))
        started = self.sim.now
        deadline_at = started + (deadline or self.config.default_deadline)
        n = len(items)
        quorum = self.cell.mode.quorum
        self._h_batch_size_set.observe(n)
        root = self.tracer.start("set_multi", client=self.client_id, batch=n)
        # The "build" phase covers the batch's client-side CPU (mutation
        # build + value encoding); "mutate" then starts the instant it
        # ends, so phase durations sum to the op latency (the PR 1
        # sum-invariant, kept for the batched path).
        build_span = root.child("build", batch=n)
        # One mutation-build charge for the whole batch — the per-op CPU
        # the coalesced path amortizes.
        yield self.host.execute(self.config.costs.mutation_cpu,
                                "cliquemap-client")
        encoded: List[bytes] = []
        versions: List[VersionNumber] = []
        for _key, value in items:
            encoded.append((yield from self._encode_value(value)))
            versions.append(self.versions.next())
        build_span.finish()

        results: List[Optional[MutationResult]] = [None] * n
        fallback: Dict[int, str] = {}
        per_view: Dict[str, List[int]] = {}
        per_shadow: Dict[str, List[int]] = {}
        for i, (key, _value) in enumerate(items):
            key_hash = self.placement.key_hash(key)
            views = self._replica_views(key_hash)
            for shadow in self._shadow_views(key_hash):
                per_shadow.setdefault(shadow.task, []).append(i)
            if not views:
                fallback[i] = "no-healthy-replicas"
                continue
            for view in views:
                per_view.setdefault(view.task, []).append(i)
        def multiset(idxs: List[int]) -> Tuple[dict, int]:
            entries = [[items[i][0], encoded[i], versions[i].pack()]
                       for i in idxs]
            size = sum(len(items[i][0]) + len(encoded[i])
                       for i in idxs) + 64 + 24 * len(idxs)
            return {"entries": entries}, size

        # Dual-write shadows: fire-and-forget MultiSets at the resize
        # target cohort; never counted toward per-key quorum below.
        for task, idxs in per_shadow.items():
            self._shadow_mutate(self._views[task], "MultiSet",
                                *multiset(idxs))
        replies_for: List[List[dict]] = [[] for _ in items]
        span = root.child("mutate", method="MultiSet",
                          backends=len(per_view))

        def leg(view: BackendView, payload: dict, size: int) -> Generator:
            # A process per backend: the FanIn below takes its children
            # in an order only processes give it.
            try:
                reply = yield from view.channel.call(
                    "MultiSet", payload,
                    deadline=self.config.mutation_rpc_deadline,
                    request_size=size, trace=span)
            except (PermissionDeniedError, RpcError) as exc:
                return self._book_mutation(view, None, exc)
            return self._book_mutation(view, reply, None)

        rpcs = self.sim.fan_in()
        for task, idxs in per_view.items():
            rpcs.spawn(self._isolate(leg(self._views[task], *multiset(idxs)),
                                     lambda _exc: None), idxs)
        while rpcs.pending:
            idxs, reply = yield rpcs.next()
            if reply is None:
                continue
            for i, key_reply in zip(idxs, reply.get("results", [])):
                replies_for[i].append(key_reply)
        span.finish()

        for i in range(n):
            if i in fallback:
                continue
            self.host.charge_inline(self.config.costs.quorum_cpu,
                                    "cliquemap-client")
            latency = self.sim.now - started
            status, applied = self._tally(replies_for[i], quorum)
            if status is SetStatus.FAILED:
                fallback[i] = "inquorate"
                continue
            if status is SetStatus.APPLIED:
                yield from self._note_sor_write(items[i][0], items[i][1])
            results[i] = MutationResult(
                status, version=versions[i], replicas_applied=applied,
                latency=latency,
                trace=self._finish_op("set", status.value, latency, root,
                                      batched=True))

        yield from self._finish_batch(
            "set_multi", root, results, fallback, started, deadline_at,
            lambda i, remaining: self.set(items[i][0], items[i][1],
                                          remaining),
            self._mutation_error_result)
        return results

    def erase(self, key: bytes,
              deadline: Optional[float] = None, trace=None) -> Generator:
        """ERASE via RPC; tombstoned so late SETs cannot resurrect (§5.2)."""
        started = self.sim.now
        root = self.tracer.start("erase", parent=_parent_span(trace),
                                 client=self.client_id)
        return (yield from self._mutate_op(
            "erase", "Erase", key, {"key": key}, len(key) + 64, None,
            started, deadline, root))

    def cas(self, key: bytes, value: bytes, expected: VersionNumber,
            deadline: Optional[float] = None, trace=None) -> Generator:
        """Compare-and-set: install only if the stored version matches."""
        started = self.sim.now
        root = self.tracer.start("cas", parent=_parent_span(trace),
                                 client=self.client_id)
        raw_value = value
        value = yield from self._encode_value(value)
        version = self.versions.next()
        replies = yield from self._mutate_all(
            "Cas", {"key": key, "value": value, "new_version": version.pack(),
                    "expected_version": expected.pack()},
            self.placement.key_hash(key), len(key) + len(value) + 96, root)
        status, applied = self._tally(replies, self.cell.mode.quorum)
        latency = self.sim.now - started
        root.finish()
        stored = None
        for reply in replies:
            if reply is not None and "stored_version" in reply:
                candidate = VersionNumber.unpack(reply["stored_version"])
                stored = candidate if stored is None else max(stored,
                                                              candidate)
        if status is SetStatus.APPLIED:
            stored = None
            yield from self._note_sor_write(key, raw_value)
        else:
            status = SetStatus.FAILED  # a superseded CAS lost its race
        return MutationResult(status, version=version,
                              replicas_applied=applied, latency=latency,
                              stored_version=stored,
                              trace=self._finish_op("cas", status.value,
                                                    latency, root))

    def append(self, key: bytes, suffix: bytes,
               deadline: Optional[float] = None) -> Generator:
        """Append to a value: a new mutation type built as a CAS loop (§9).

        Uncoordinated per-replica read-modify-write would diverge, so the
        append is resolved at the client, one attempt of the op engine
        at a time: GET, extend, CAS against the observed version (a
        plain SET creates an absent key); a lost race retries. The inner
        ops run under this op's span and what is left of its deadline.
        """
        started = self.sim.now
        deadline_at = started + (deadline or self.config.default_deadline)
        root = self.tracer.start("append", client=self.client_id)

        def remaining() -> float:
            return max(1e-6, deadline_at - self.sim.now)

        def attempt(_n: int) -> Generator:
            current = yield from self.get(key, remaining(), trace=root)
            if current.status is GetStatus.ERROR:
                raise _AttemptRetry("get-error")
            if current.status is GetStatus.MISS:
                # Creation race: a concurrent newer mutation supersedes
                # the SET, and the retry sees its value.
                result = yield from self.set(key, suffix, remaining(),
                                             trace=root)
            else:
                result = yield from self.cas(
                    key, current.value + suffix, current.version,
                    remaining(), trace=root)
            if result.status is not SetStatus.APPLIED:
                raise _AttemptRetry("cas-conflict")
            return result

        result, attempts, reason = yield from self._run_op(
            "append", root, deadline_at, attempt)
        if result is None:
            result = MutationResult(SetStatus.FAILED, error=reason)
        result.latency = self.sim.now - started
        result.attempts = attempts
        root.finish()
        result.trace = self._finish_op("append", result.status.value,
                                       result.latency, root)
        return result

    def _mutate_all(self, method: str, payload: dict, key_hash: bytes,
                    payload_size: int, span=NULL_SPAN,
                    attempt: int = 1) -> Generator:
        """Issue one mutation RPC to every replica; None for failures.

        No process per replica: each RPC starts one zero-delay hop from
        now and books its reply as it lands, and the parked op resumes
        two hops after the last landing. The hops order every entry as
        per-replica processes joined by ``all_of`` would: their starts,
        then the last one's exit and the join.
        """
        yield self.host.execute(self.config.costs.mutation_cpu,
                                "cliquemap-client")
        views = self._replica_views(key_hash)
        for shadow in self._shadow_views(key_hash):
            self._shadow_mutate(shadow, method, payload, payload_size)
        if not views:
            return []
        fanout_span = span.child("mutate", attempt=attempt, method=method)
        sim = self.sim
        proc = sim._active
        proc._token = proc._waiting_on = token = proc._token + 1
        replies: List[Optional[dict]] = [None] * len(views)
        left = [len(views)]

        def landed(i: int, reply, exc: Optional[BaseException]) -> None:
            replies[i] = self._book_mutation(views[i], reply, exc)
            left[0] -= 1
            if not left[0]:
                sim.call_soon(sim.call_soon, proc._on_wake, token)

        for i, view in enumerate(views):
            sim.call_soon(view.channel.start, method, payload,
                          self.config.mutation_rpc_deadline,
                          partial(landed, i), payload_size, fanout_span)
        yield PARKED
        fanout_span.finish()
        return replies

    def _book_mutation(self, view: BackendView, reply: Optional[dict],
                       exc: Optional[BaseException]) -> Optional[dict]:
        """Book one replica's mutation reply as it lands: the reply, or
        None on failure."""
        if exc is None:
            view.health.record_success()
            reply_config = reply.get("config_id")
            if reply_config is not None and \
                    reply_config > self.cell.config_id:
                self._note_stale_config(reply_config)
            return reply
        if isinstance(exc, PermissionDeniedError):
            return None  # unauthorized: not retryable
        if not isinstance(exc, RpcError):
            raise exc
        view_alive = self.directory(view.task).alive \
            if self.directory else True
        if not view_alive:
            self._leg_down(view)
        else:
            view.health.record_failure()
        return None

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
            if view is None or not view.healthy:
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
