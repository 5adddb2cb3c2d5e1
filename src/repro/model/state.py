"""Abstract protocol state for model-checking R=3.2 (§5.1 footnote 3).

The paper proved single-failure tolerance of the R=3.2 quorum protocol
in TLA+. This module defines the corresponding abstract model: three
replicas holding per-key versions, uncoordinated mutations delivered to
replicas in any order, monotonic apply, tombstones, at most one crashed
replica (with repair on restart), and quorum reads.

The two rules the proof is about are the shipped ones, not copies: every
delivery is decided by :func:`repro.core.tombstone.arbitrate`, the rule
the backend's SET / CAS / ERASE handlers and ``install_entries`` call,
and every read by :func:`repro.core.quorum.evaluate`, the rule the
client's ballots call. A bug injected into either is a bug the checker
sees. Two gaps remain between model and shipped code:

* The model never redelivers a mutation to a replica that already
  processed it, so the rule's ``<=`` mutated to ``<`` (an equal version
  re-applied) passes every bound. The backend does see equal versions:
  each re-run handoff sweep re-installs what its target already holds.
* :meth:`ModelState.restart_with_repair` adopts the cohort's erase
  floor, but the shipped ``RepairScanner.recover_from`` pulls resident
  entries only (``Backend.held_versions`` ships no tombstones). Modelling
  that pull still checks ok at ``check(2, 1, 0, crash)``, over 478,959
  states rather than 544,449.

States are small immutable tuples so the checker can enumerate the full
reachable space by breadth-first search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Optional, Tuple

from ..core import quorum, tombstone

REPLICAS = 3
QUORUM = 2

ABSENT = 0  # version 0 means "no value stored"


@dataclass(frozen=True)
class Mutation:
    """A client mutation in flight: applied to some replicas, not others.

    ``kind`` is "set", "erase", or "cas"; ``version`` is a totally-ordered
    int (standing in for {TrueTime, ClientId, Seq}); ``delivered`` is the
    set of replica indices that have *processed* it and ``applied`` the
    subset that actually mutated state (a monotonicity/CAS-mismatch
    reject processes without applying). CAS mutations carry the
    ``expected`` version they are conditional on.
    """

    kind: str
    version: int
    delivered: FrozenSet[int] = frozenset()
    applied: FrozenSet[int] = frozenset()
    expected: int = -1   # only meaningful for kind == "cas"

    def deliver_to(self, replica: int, did_apply: bool) -> "Mutation":
        applied = self.applied | {replica} if did_apply else self.applied
        return Mutation(self.kind, self.version,
                        self.delivered | {replica}, applied, self.expected)

    @property
    def fully_delivered(self) -> bool:
        return len(self.delivered) == REPLICAS

    @property
    def acked(self) -> bool:
        """Client-visible success: a quorum of replicas processed it."""
        return len(self.delivered) >= QUORUM

    @property
    def ack_applied(self) -> bool:
        """A quorum of replicas actually applied it (CAS success)."""
        return len(self.applied) >= QUORUM


@dataclass(frozen=True)
class ModelState:
    """One global protocol state for a single key."""

    # Per-replica stored version (ABSENT or the version of the stored
    # value). A stored version is always a "set" version.
    stored: Tuple[int, ...] = (ABSENT,) * REPLICAS
    # Per-replica tombstone floor: the highest erase version processed.
    erased: Tuple[int, ...] = (ABSENT,) * REPLICAS
    # In-flight mutations (ordered tuple for hashability).
    pending: Tuple[Mutation, ...] = ()
    # Index of the crashed replica, if any (at most one).
    crashed: Optional[int] = None
    # Highest version of any mutation issued so far.
    issued_max: int = 0
    # Completed CAS mutations (kept for the lost-update invariant I5).
    # A frozenset so states differing only in completion order coincide.
    history: FrozenSet[Mutation] = frozenset()

    # -- replica-side transition -------------------------------------------

    def verdict(self, mutation: Mutation, replica: int) -> Tuple[bool, str]:
        """``(applied, reason)`` for delivering ``mutation`` to
        ``replica``: the backend's rule, :func:`tombstone.arbitrate`,
        over the replica's floor (stored value or erase floor). A CAS is
        decided atomically with its install, as under the backend's
        per-key lock (the TOCTOU the implementation must not have)."""
        floor = max(self.stored[replica], self.erased[replica])
        expected = mutation.expected if mutation.kind == "cas" else None
        return tombstone.arbitrate(mutation.version, floor, expected)

    def apply(self, mutation: Mutation, replica: int) -> "ModelState":
        """Deliver ``mutation`` to ``replica``, as :meth:`verdict` decides."""
        if replica == self.crashed:
            raise ValueError("cannot deliver to a crashed replica")
        stored = list(self.stored)
        erased = list(self.erased)
        did_apply, _reason = self.verdict(mutation, replica)
        if did_apply and mutation.kind == "erase":
            stored[replica] = ABSENT
            erased[replica] = mutation.version
        elif did_apply:
            stored[replica] = mutation.version
        # Match the pending entry by logical identity (kind, version) so
        # callers may hold a stale handle with an older delivered-set.
        pending = tuple(
            m.deliver_to(replica, did_apply)
            if (m.kind, m.version) == (mutation.kind, mutation.version)
            else m
            for m in self.pending)
        # Fully-delivered mutations leave the network; fully-delivered CAS
        # outcomes are retained (their ack_applied matters to I5) — they
        # are moved to the history tuple instead.
        history = self.history
        done = tuple(m for m in pending
                     if m.fully_delivered and m.kind == "cas")
        if done:
            history = history | frozenset(done)
        pending = tuple(m for m in pending if not m.fully_delivered)
        return ModelState(tuple(stored), tuple(erased), pending,
                          self.crashed, self.issued_max, history)

    # -- client-side transitions --------------------------------------------

    def issue(self, kind: str, expected: int = -1) -> "ModelState":
        version = self.issued_max + 1
        mutation = Mutation(kind, version, expected=expected)
        return ModelState(self.stored, self.erased,
                          self.pending + (mutation,), self.crashed, version,
                          self.history)

    # -- failure transitions -----------------------------------------------

    def crash(self, replica: int) -> "ModelState":
        if self.crashed is not None:
            raise ValueError("at most one crash in the single-failure model")
        # A crashed replica loses its state (restart is with empty DRAM);
        # pending deliveries to it are dropped.
        stored = list(self.stored)
        erased = list(self.erased)
        stored[replica] = ABSENT
        erased[replica] = ABSENT
        pending = tuple(m for m in self.pending
                        if not (m.delivered == frozenset(
                            set(range(REPLICAS)) - {replica})))
        return ModelState(tuple(stored), tuple(erased), pending, replica,
                          self.issued_max, self.history)

    def restart_with_repair(self) -> "ModelState":
        """The crashed replica restarts and runs restart recovery (§5.4):
        it adopts the highest stored/erase versions among its cohort."""
        if self.crashed is None:
            raise ValueError("nothing to restart")
        replica = self.crashed
        healthy = [i for i in range(REPLICAS) if i != replica]
        stored = list(self.stored)
        erased = list(self.erased)
        # Repair sources the per-key max from the healthy cohort.
        best_set = max(stored[i] for i in healthy)
        best_erase = max(erased[i] for i in healthy)
        if best_set > best_erase:
            stored[replica] = best_set
        else:
            stored[replica] = ABSENT
            erased[replica] = best_erase
        return ModelState(tuple(stored), tuple(erased), self.pending, None,
                          self.issued_max, self.history)

    def scan_repair(self) -> "ModelState":
        """The periodic cohort scan (§5.4): a backend observing a dirty
        quorum re-installs the datum at a *new* VersionNumber N on every
        live replica, so the cohort settles on one consistent view.

        The scanner exchanges KeyHashes of *stored* entries only (the
        index region); tombstones are not exchanged, exactly as in the
        implementation — so a lone surviving value wins over lost
        tombstones, at a version that supersedes them.
        """
        live = self.live_replicas()
        best_set = max(self.stored[i] for i in live)
        if best_set == ABSENT:
            return self  # nothing stored anywhere: nothing to repair
        new_version = self.issued_max + 1
        stored = list(self.stored)
        erased = list(self.erased)
        for i in live:
            stored[i] = new_version
        return ModelState(tuple(stored), tuple(erased), self.pending,
                          self.crashed, new_version, self.history)

    def is_divergent(self) -> bool:
        """True when some live replica disagrees with the others."""
        live = self.live_replicas()
        return len({(self.stored[i], ) for i in live}) > 1

    # -- derived client views ----------------------------------------------

    def live_replicas(self) -> Tuple[int, ...]:
        return tuple(i for i in range(REPLICAS) if i != self.crashed)

    def quorum_reads(self) -> Tuple[Optional[int], ...]:
        """Every outcome a quorum GET could observe right now.

        A read asks all three replicas (a crashed one votes an error) and
        the client's rule, :func:`quorum.evaluate`, decides. With three
        replicas at most one value can win two votes, so this is ``()``
        (a racing client would retry) or one outcome; ``ABSENT`` means a
        decided miss.
        """
        return _decided_reads(self.stored, self.crashed)

    # -- invariant inputs ----------------------------------------------------

    def acked_sets(self) -> Tuple[int, ...]:
        """Versions of SETs known to have reached a quorum, and therefore
        acknowledged to some client."""
        acked = [m.version for m in self.pending
                 if m.kind == "set" and m.acked]
        # Fully-delivered mutations are no longer pending; reconstruct
        # them from replica state: any version stored at >= QUORUM
        # replicas was necessarily acked.
        for version in sorted(set(self.stored)):
            if version != ABSENT and \
                    sum(1 for s in self.stored if s == version) >= QUORUM:
                acked.append(version)
        return tuple(sorted(set(acked)))

    def cas_outcomes(self) -> Tuple[Mutation, ...]:
        """All CAS mutations, in flight or completed."""
        # By version: ``history`` is a frozenset, its order the hash seed's.
        done = sorted(self.history, key=lambda m: m.version)
        return tuple(m for m in tuple(self.pending) + tuple(done)
                     if m.kind == "cas")

    def superseded_by(self, version: int) -> bool:
        """True if any mutation newer than ``version`` exists anywhere."""
        if any(m.version > version for m in self.pending):
            return True
        if any(s > version for s in self.stored):
            return True
        if any(e > version for e in self.erased):
            return True
        return False


@lru_cache(maxsize=None)
def _decided_reads(stored: Tuple[int, ...],
                   crashed: Optional[int]) -> Tuple[Optional[int], ...]:
    """:meth:`ModelState.quorum_reads`, memoised: a function of the
    stored triple and the crashed replica alone."""
    kind = quorum.VoteKind
    votes = [quorum.ReplicaVote(str(i), kind.ERROR if i == crashed else
                                kind.ABSENT if version == ABSENT else
                                kind.PRESENT, version)
             for i, version in enumerate(stored)]
    decision = quorum.evaluate(votes, REPLICAS, QUORUM)
    if decision.outcome in (quorum.QuorumOutcome.PRESENT,
                            quorum.QuorumOutcome.ABSENT):
        return (decision.version or ABSENT,)
    return ()
