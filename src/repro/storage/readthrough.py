"""The production cache-miss pipeline: cache ←(read-through)→ SoR.

A :class:`ReadThroughCoordinator` sits between every
:class:`~repro.core.CliqueMapClient` of a cell and an attached
:class:`~repro.storage.SystemOfRecord`, and implements the four herd
defenses a cache-fill path needs in production (§5 posture):

* **Single-flight coalescing** — at most one in-flight SoR fetch per
  key; concurrent missers park on the leader's flight and share its
  result, so a thundering herd on one viral key costs one media read.
* **Negative caching** — "the SoR does not have this key" is remembered
  for :attr:`MissPolicy.negative_ttl` seconds, so absent-key storms
  short-circuit before the RPC layer.
* **Write-behind** — acknowledged cache mutations land in a bounded
  dirty buffer and drain to the SoR in flush-budgeted sweeps; a full
  buffer degrades to synchronous write-through rather than losing the
  write. The buffer is authoritative while dirty: fetches for a dirty
  key are served from it without touching the SoR.
* **Backfill admission control** — warming traffic (:meth:`warm`)
  spends from a token bucket (the PR 2
  :class:`~repro.core.resilience.RetryBudget` machinery) and is *shed*
  when the bucket runs dry, so a cold-start storm cannot consume the
  SoR capacity foreground misses depend on.

Built by ``cell.attach_sor(sor, policy)`` — not constructed directly.
Fetch outcomes land in ``cliquemap_sor_fetches_total{result}``; the
dirty buffer depth in ``cliquemap_sor_dirty_buffer_depth``; flush
outcomes in ``cliquemap_sor_writebacks_total{result}``; cache fills in
``cliquemap_sor_fills_total{result}``.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence

from ..core.resilience import BackoffPolicy, RetryBudget
from ..rpc import Principal, RpcError, connect as rpc_connect
from ..sim import RandomStream
from .policy import (FETCH_BACKOFF, FLUSH_BATCH_MAX, FLUSH_INTERVAL,
                     NEGATIVE_CAPACITY)

_MISSING = object()


class _Flight:
    """One in-flight leader fetch plus the waiters parked on it."""

    __slots__ = ("waiters", "dirtied")

    def __init__(self):
        self.waiters: List[object] = []
        # Set when a client write raced the fetch: the fetched (older)
        # value must not be filled over the acknowledged write.
        self.dirtied = False


class ReadThroughCoordinator:
    """Cell-wide miss-path coordinator between clients and one SoR."""

    def __init__(self, cell, sor, policy):
        self.cell = cell
        self.sim = cell.sim
        self.sor = sor
        self.policy = policy
        self.metrics = cell.metrics
        self._closed = False
        principal = Principal(f"sor@{cell.spec.name}")
        self.host = cell.add_local_host(
            f"host/sor-coordinator-{cell.spec.name}")
        self.channel = rpc_connect(cell.sim, cell.fabric, self.host,
                                   sor.rpc_server, principal)
        # Fills go through a real client so they pay the normal quorum
        # mutation path and version rules (a racing user SET simply
        # supersedes the fill). read_through=False: the fill client must
        # never recurse into this coordinator.
        self.fill_client = cell.make_client(principal=principal,
                                            read_through=False)
        cell.sim.run(until=cell.sim.process(self.fill_client.connect()))
        self._rand = RandomStream(cell.spec.seed, "sor-coordinator")
        self._flights: Dict[bytes, _Flight] = {}
        self._negative: Dict[bytes, float] = {}   # key -> expiry (sim s)
        self._dirty: Dict[bytes, Optional[bytes]] = {}  # None = delete
        self._flusher_started = False
        self.backfill_budget = RetryBudget(
            clock=lambda: self.sim.now,
            capacity=policy.backfill_budget,
            fill_rate=policy.backfill_fill_rate)

        self.stats = {
            "fetches": 0, "sor_hits": 0, "sor_misses": 0, "coalesced": 0,
            "negative_hits": 0, "buffered_serves": 0, "shed": 0,
            "throttled": 0, "errors": 0, "fills": 0, "writebacks": 0,
            "writebacks_throttled": 0, "writebacks_rejected": 0,
            "writebacks_dropped": 0, "sync_writes": 0, "buffer_overflows": 0,
        }
        self._m_fetches = self.metrics.counter(
            "cliquemap_sor_fetches_total",
            "Miss-path SoR fetch outcomes (hit/miss/negative/coalesced/"
            "buffered/throttled/shed/error)")
        self._h_fetches = {
            result: self._m_fetches.labels(result=result)
            for result in ("hit", "miss", "negative", "coalesced",
                           "buffered", "throttled", "shed", "error")}
        self._m_fills = self.metrics.counter(
            "cliquemap_sor_fills_total",
            "Cache fills after an SoR fetch, by mutation outcome")
        self._m_writebacks = self.metrics.counter(
            "cliquemap_sor_writebacks_total",
            "Write-behind flushes by result (ok/sync/throttled/rejected/"
            "dropped)")
        self._g_dirty = self.metrics.gauge(
            "cliquemap_sor_dirty_buffer_depth",
            "Dirty keys buffered awaiting a write-behind flush"
        ).labels(sor=sor.name)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def fetch(self, key: bytes, klass: str = "foreground") -> Generator:
        """Resolve a cache miss against the SoR.

        Returns ``(status, value)`` with status one of ``"hit"``
        (value fetched — and, unless a write raced it, filled into the
        cache), ``"miss"`` (SoR authoritatively lacks the key),
        ``"negative"`` (remembered-absent, no SoR traffic), ``"shed"``
        (backfill admission refused it), or ``"error"`` (SoR
        unreachable/throttled past the fetch deadline).

        ``klass="backfill"`` spends from the admission token bucket;
        foreground fetches never do.
        """
        policy = self.policy
        self.stats["fetches"] += 1
        if not policy.read_through:
            return ("miss", None)
        expiry = self._negative.get(key)
        if expiry is not None:
            if self.sim.now < expiry:
                self.stats["negative_hits"] += 1
                self._h_fetches["negative"].inc()
                return ("negative", None)
            self._negative.pop(key, None)
        dirty = self._dirty.get(key, _MISSING)
        if dirty is not _MISSING:
            # The dirty buffer holds the acknowledged latest value; the
            # SoR copy is stale until the flush lands.
            self.stats["buffered_serves"] += 1
            self._h_fetches["buffered"].inc()
            return ("hit", dirty) if dirty is not None else ("miss", None)
        if policy.coalesce:
            flight = self._flights.get(key)
            if flight is not None:
                self.stats["coalesced"] += 1
                self._h_fetches["coalesced"].inc()
                waiter = self.sim.event()
                flight.waiters.append(waiter)
                outcome = yield waiter
                return outcome
        if klass == "backfill" and not self.backfill_budget.try_spend():
            self.stats["shed"] += 1
            self._h_fetches["shed"].inc()
            return ("shed", None)
        flight = _Flight()
        if policy.coalesce:
            self._flights[key] = flight
        outcome = ("error", None)
        try:
            outcome = yield from self._leader_fetch(key, flight)
        finally:
            if policy.coalesce:
                self._flights.pop(key, None)
            for waiter in flight.waiters:
                waiter.succeed(outcome)
        return outcome

    def _leader_fetch(self, key: bytes, flight: _Flight) -> Generator:
        policy = self.policy
        deadline_at = self.sim.now + policy.fetch_deadline
        backoff = BackoffPolicy(FETCH_BACKOFF,
                                policy.fetch_deadline / 4, self._rand)
        for attempt in range(policy.fetch_retries):
            if self.sim.now >= deadline_at:
                break
            try:
                reply = yield from self.channel.call(
                    "Read", {"key": key},
                    deadline=max(1e-6, deadline_at - self.sim.now),
                    request_size=len(key) + 32)
            except RpcError:
                reply = None
            if reply is not None and not reply.get("throttled"):
                if reply.get("found"):
                    value = reply["value"]
                    self.stats["sor_hits"] += 1
                    self._h_fetches["hit"].inc()
                    if not flight.dirtied:
                        yield from self._fill(key, value)
                    return ("hit", value)
                self.stats["sor_misses"] += 1
                self._h_fetches["miss"].inc()
                if policy.negative_ttl > 0:
                    self._note_negative(key)
                return ("miss", None)
            if reply is not None:
                self.stats["throttled"] += 1
                self._h_fetches["throttled"].inc()
            if attempt + 1 >= policy.fetch_retries:
                break
            delay = backoff.next_delay()
            if self.sim.now + delay >= deadline_at:
                break
            if delay:
                yield self.sim.delay(delay)
        self.stats["errors"] += 1
        self._h_fetches["error"].inc()
        return ("error", None)

    def _fill(self, key: bytes, value: bytes) -> Generator:
        self.stats["fills"] += 1
        result = yield from self.fill_client.set(key, value)
        self._m_fills.labels(result=result.status.name.lower()).inc()

    def _note_negative(self, key: bytes) -> None:
        if len(self._negative) >= NEGATIVE_CAPACITY:
            self._negative.pop(next(iter(self._negative)))
        self._negative[key] = self.sim.now + self.policy.negative_ttl

    # ------------------------------------------------------------------
    # Write path (write-behind)
    # ------------------------------------------------------------------

    def note_write(self, key: bytes, value: Optional[bytes]) -> bool:
        """Record an acknowledged cache mutation (``None`` = erase).

        Returns True when absorbed into the write-behind buffer. False
        means the dirty buffer is full: the caller must propagate the
        write synchronously via :meth:`write_through`.
        """
        self._negative.pop(key, None)
        flight = self._flights.get(key)
        if flight is not None:
            flight.dirtied = True
        if key in self._dirty:
            self._dirty[key] = value          # keeps first-dirty order
            return True
        if len(self._dirty) >= self.policy.dirty_buffer_max:
            self.stats["buffer_overflows"] += 1
            return False
        self._dirty[key] = value
        self._g_dirty.set(len(self._dirty))
        self._ensure_flusher()
        return True

    def write_through(self, key: bytes, value: Optional[bytes]) -> Generator:
        """Synchronous SoR write: the full-buffer degradation path."""
        self.stats["sync_writes"] += 1
        ok = yield from self._sor_write(key, value)
        if not ok:
            self.stats["writebacks_dropped"] += 1
        self._m_writebacks.labels(
            result="sync" if ok else "dropped").inc()

    def _ensure_flusher(self) -> None:
        if self._flusher_started:
            return
        self._flusher_started = True
        proc = self.sim.process(self._flush_loop(), name="sor-flusher")
        proc.defused = True

    def _flush_loop(self) -> Generator:
        while not self._closed:
            yield self.sim.delay(FLUSH_INTERVAL)
            yield from self._flush_once(FLUSH_BATCH_MAX)

    def _flush_once(self, budget: int) -> Generator:
        """Flush up to ``budget`` dirty keys, oldest-first.

        A throttled write leaves its key at the front of the buffer and
        ends the sweep — the flush retries next interval at the SoR's
        provisioned pace instead of spinning against the quota.
        """
        flushed = 0
        while self._dirty and flushed < budget:
            key = next(iter(self._dirty))
            value = self._dirty[key]
            ok = yield from self._sor_write(key, value)
            if not ok:
                self.stats["writebacks_throttled"] += 1
                self._m_writebacks.labels(result="throttled").inc()
                break
            # Only retire the entry if it was not re-dirtied mid-flush.
            if key in self._dirty and self._dirty[key] is value:
                del self._dirty[key]
            flushed += 1
        self._g_dirty.set(len(self._dirty))
        return flushed

    def _sor_write(self, key: bytes, value: Optional[bytes]) -> Generator:
        """One SoR Write with bounded retry; False if still throttled."""
        if value is None:
            payload = {"key": key, "delete": True}
            size = len(key) + 64
        else:
            payload = {"key": key, "value": value}
            size = len(key) + len(value) + 64
        backoff = BackoffPolicy(FETCH_BACKOFF,
                                self.policy.fetch_deadline / 4, self._rand)
        for attempt in range(self.policy.fetch_retries):
            try:
                reply = yield from self.channel.call(
                    "Write", payload, deadline=self.policy.fetch_deadline,
                    request_size=size)
            except RpcError:
                reply = None
            if reply is not None and reply.get("applied"):
                self.stats["writebacks"] += 1
                self._m_writebacks.labels(result="ok").inc()
                return True
            if reply is not None and not reply.get("throttled"):
                # Terminal rejection (e.g. a frozen corpus): drop the
                # entry — retrying cannot succeed.
                self.stats["writebacks_rejected"] += 1
                self._m_writebacks.labels(result="rejected").inc()
                return True
            if attempt + 1 >= self.policy.fetch_retries:
                break
            delay = backoff.next_delay()
            if delay:
                yield self.sim.delay(delay)
        return False

    # ------------------------------------------------------------------
    # Backfill / warming
    # ------------------------------------------------------------------

    def warm(self, keys: Sequence[bytes], concurrency: int = 8) -> Generator:
        """Backfill ``keys`` through the miss pipeline as backfill-class
        traffic (admission-controlled and sheddable). Returns a dict of
        outcome counts."""
        report = {"requested": len(keys), "hits": 0, "misses": 0,
                  "shed": 0, "errors": 0}
        pending = list(keys)

        def worker():
            while pending:
                key = pending.pop()
                status, _value = yield from self.fetch(key, klass="backfill")
                if status == "hit":
                    report["hits"] += 1
                elif status in ("miss", "negative"):
                    report["misses"] += 1
                elif status == "shed":
                    report["shed"] += 1
                else:
                    report["errors"] += 1

        procs = [self.sim.process(worker())
                 for _ in range(max(1, min(concurrency, len(pending))))]
        yield self.sim.all_of(procs)
        return report

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    @property
    def dirty_depth(self) -> int:
        return len(self._dirty)

    def coalescing_ratio(self) -> float:
        """Fraction of miss-path fetch requests that piggybacked on an
        already-in-flight leader (0.0 when nothing coalesced)."""
        coalesced = self.stats["coalesced"]
        total = self.stats["fetches"]
        return coalesced / total if total else 0.0

    def flush(self) -> Generator:
        """Drain the dirty buffer completely (close-time semantics)."""
        for _sweep in range(64):
            if not self._dirty:
                break
            flushed = yield from self._flush_once(len(self._dirty))
            if self._dirty and not flushed:
                # Persistently throttled: wait out one flush interval so
                # the provisioned buckets refill, then try again.
                yield self.sim.delay(FLUSH_INTERVAL)

    def close(self) -> None:
        """Stop the flusher; drive a final drain when the sim is idle."""
        if self._closed:
            return
        if self._dirty and not getattr(self.sim, "_running", False):
            self.sim.run(until=self.sim.process(self.flush()))
        self._closed = True
