"""CliqueMap client lookups (§3, §5.1), a base of
:class:`~repro.core.client.CliqueMapClient`:

* **2xR GETs** — bucket fetch, scan, data fetch, all one-sided;
* **SCAR GETs** — one round trip via the software NIC (§6.3);
* **RPC lookups** — fallback for WAN access and overflowed buckets;
* **client-side quoruming** with first-responder preference (§5.1);
* **self-validation** of every response: checksum, full-key compare,
  version-vs-quorum, bucket magic, and configuration id (§3, §6.1).
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..net import NetworkDropError
from ..rpc import RpcError
from ..telemetry import NULL_SPAN
from ..transport import RegionRevokedError, RemoteHostDownError, RmaError
from .config import GetStrategy, ReplicationMode
from .data import try_decode
from .errors import (_QUORUM_CPU, _SOR_OUTCOME, BackendView, GetResult,
                     GetStatus, _AttemptRetry, _parent_span)
from .index import parse_bucket
from .quorum import (Ballot, QuorumDecision, QuorumOutcome, ReplicaVote,
                     VoteKind)
from .version import VersionNumber

_DECOMPRESS_CPU_PER_KB = 3e-6    # ~300 MB/s inflate

# CliqueMap-client CPU costs (distinct from transport/engine CPU).
_ISSUE_OP_CPU = 0.22e-6          # set up one RMA op
_COMPLETION_CPU = 0.28e-6        # process one RMA completion
_VALIDATE_CPU = 0.30e-6          # checksum + key comparison
_VALIDATE_PER_KB = 0.045e-6


class _Lookup:
    """Every read of :class:`~repro.core.client.CliqueMapClient`."""

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
        if status is GetStatus.MISS and self.read_through is not None:
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

    @staticmethod
    def _get_error_result(exc: Exception) -> "GetResult":
        return GetResult(GetStatus.ERROR,
                         error=f"unhandled-{type(exc).__name__}")

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
                self.host.charge_inline(_QUORUM_CPU, "cliquemap-client")
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
        reads_through = self.read_through is not None

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
            self.host.charge_inline(_QUORUM_CPU, "cliquemap-client")
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
        self.host.charge_inline(_ISSUE_OP_CPU, "cliquemap-client")
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
        self.host.charge_inline(_COMPLETION_CPU, "cliquemap-client")
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
        yield self.host.execute(
            _VALIDATE_CPU + len(raw) / 1024.0 * _VALIDATE_PER_KB,
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

    # -- transparent value compression (§9) --------------------------------

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
