"""CliqueMap client mutations, a base of
:class:`~repro.core.client.CliqueMapClient`:

* **mutations** via RPC to all replicas with client-nominated
  VersionNumbers (§5.2).
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import Dict, Generator, List, Optional, Tuple

from ..rpc import PermissionDeniedError, RpcError
from ..sim.core import PARKED
from ..telemetry import NULL_SPAN
from .errors import (_QUORUM_CPU, BackendView, GetStatus, MutationResult,
                     SetStatus, _AttemptRetry, _parent_span)
from .version import VersionNumber

_COMPRESS_CPU_PER_KB = 10e-6     # ~100 MB/s deflate
_COMPRESS_MIN_BYTES = 512        # smaller values are stored raw

# CliqueMap-client CPU costs (distinct from transport/engine CPU).
_MUTATION_CPU = 0.60e-6          # build mutation RPCs


class _Mutation:
    """Every write of :class:`~repro.core.client.CliqueMapClient`."""

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
        yield self.host.execute(_MUTATION_CPU, "cliquemap-client")
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
            self.host.charge_inline(_QUORUM_CPU, "cliquemap-client")
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
        yield self.host.execute(_MUTATION_CPU, "cliquemap-client")
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

    @staticmethod
    def _mutation_error_result(exc: Exception) -> "MutationResult":
        return MutationResult(SetStatus.FAILED,
                              error=f"unhandled-{type(exc).__name__}")

    # ------------------------------------------------------------------
    # Transparent value compression (§9)
    # ------------------------------------------------------------------

    _RAW = b"\x00"
    _ZLIB = b"\x01"

    def _encode_value(self, value: bytes) -> Generator:
        """Wrap (and maybe compress) a value for storage."""
        if not self.config.compression_enabled:
            return value
        if len(value) >= _COMPRESS_MIN_BYTES:
            yield self.host.execute(
                len(value) / 1024.0 * _COMPRESS_CPU_PER_KB, "cliquemap-client")
            compressed = zlib.compress(value)
            if len(compressed) < len(value):
                return self._ZLIB + compressed
        return self._RAW + value
