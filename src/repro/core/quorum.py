"""Client-side quorum evaluation for replicated GETs (§5.1).

Under R=3.2 a GET fetches IndexEntries from all three replicas and takes a
per-KV-pair majority vote on (KeyHash, VersionNumber). A *present* vote is
the entry's version; an *absent* vote is the key's absence from a fetched
bucket. Two matching votes decide; a slow or failed third replica can be
ignored — the property that both masks single failures and lets the client
prefer the first responder.

:func:`evaluate` is the rule over a list of votes; :class:`Ballot` is one
key's run of it through one lookup attempt — what a leg's outcome votes,
when the key is settled, which hazard an unsettled key retries for, and
which replica serves the datum. Nothing here knows about the simulator,
so every arrival order can be fed to a ballot directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .index import ParsedIndexEntry
from .version import VersionNumber


class VoteKind(enum.Enum):
    """What a replica's fetched bucket said about the key."""

    PRESENT = "present"
    ABSENT = "absent"
    ERROR = "error"       # fetch failed; contributes nothing


@dataclass(frozen=True)
class ReplicaVote:
    """One replica's answer to "what do you know about this key?"."""

    task: str
    kind: VoteKind
    version: Optional[VersionNumber] = None
    entry: Optional[ParsedIndexEntry] = None

    @classmethod
    def present(cls, task: str, entry: ParsedIndexEntry) -> "ReplicaVote":
        return cls(task=task, kind=VoteKind.PRESENT, version=entry.version,
                   entry=entry)

    @classmethod
    def absent(cls, task: str) -> "ReplicaVote":
        return cls(task=task, kind=VoteKind.ABSENT)

    @classmethod
    def error(cls, task: str) -> "ReplicaVote":
        return cls(task=task, kind=VoteKind.ERROR)


class QuorumOutcome(enum.Enum):
    """Result of evaluating the votes received so far."""

    PRESENT = "present"     # >= quorum agree the key exists at one version
    ABSENT = "absent"       # >= quorum agree the key does not exist
    UNDECIDED = "undecided"  # more votes could still settle it
    INQUORATE = "inquorate"  # all votes in; no majority exists


@dataclass
class QuorumDecision:
    outcome: QuorumOutcome
    version: Optional[VersionNumber] = None
    members: Tuple[str, ...] = ()
    # True when the decision is clean: all replicas (not just a quorum)
    # agree. A two-of-three agreement is a *dirty quorum* (§5.4).
    unanimous: bool = False

    def includes(self, task: str) -> bool:
        return task in self.members


def evaluate(votes: List[ReplicaVote], total_replicas: int,
             quorum: int) -> QuorumDecision:
    """Evaluate the votes received so far.

    ``votes`` holds every response received (including errors);
    ``total_replicas`` is how many were asked. Returns UNDECIDED while an
    outstanding response could still change the outcome.
    """
    tallies: dict = {}
    for vote in votes:
        if vote.kind == VoteKind.ERROR:
            continue
        key = vote.version if vote.kind == VoteKind.PRESENT else None
        tallies.setdefault(key, []).append(vote.task)

    # A decided quorum right now?
    best_key, best_tasks = None, ()
    for key, tasks in tallies.items():
        if len(tasks) >= quorum and len(tasks) > len(best_tasks):
            best_key, best_tasks = key, tuple(tasks)
    if best_tasks:
        unanimous = (len(best_tasks) == total_replicas)
        if best_key is None:
            return QuorumDecision(QuorumOutcome.ABSENT, members=best_tasks,
                                  unanimous=unanimous)
        return QuorumDecision(QuorumOutcome.PRESENT, version=best_key,
                              members=best_tasks, unanimous=unanimous)

    outstanding = total_replicas - len(votes)
    if outstanding > 0:
        # Could any tally still reach quorum with the outstanding votes?
        best_current = max((len(t) for t in tallies.values()), default=0)
        if best_current + outstanding >= quorum:
            return QuorumDecision(QuorumOutcome.UNDECIDED)
    return QuorumDecision(QuorumOutcome.INQUORATE)


_DECIDED = (QuorumOutcome.PRESENT, QuorumOutcome.ABSENT)
_UNDECIDED = QuorumDecision(QuorumOutcome.UNDECIDED)


class Ballot:
    """One key's votes in one lookup attempt.

    ``asked`` replicas were sent the key's bucket and ``quorum`` matching
    votes decide. With ``await_task`` (the primary/backup ablation) a
    decided key stays unsettled until that replica has voted too.
    """

    __slots__ = ("key_hash", "asked", "quorum", "await_task", "votes",
                 "stale", "overflow", "config_mismatch", "decision",
                 "settled")

    def __init__(self, key_hash: bytes, asked: int, quorum: int,
                 await_task: Optional[str] = None):
        self.key_hash = key_hash
        self.asked = asked
        self.quorum = quorum
        self.await_task = await_task
        self.votes: List[ReplicaVote] = []
        self.stale: List[str] = []      # tasks whose index window was revoked
        self.overflow = False           # some fetched bucket had spilled
        self.config_mismatch = False    # some replica serves another config
        self.decision = _UNDECIDED
        self.settled = False

    def cast(self, task: str, outcome: tuple) -> ReplicaVote:
        """Count one leg's tagged outcome: ``("ok", task, bucket, ...)``,
        or ``stale`` / ``config`` / ``down``, which vote nothing.

        A settled ballot still records late votes — their stale and
        config flags steer recovery — but its decision no longer moves.
        """
        kind = outcome[0]
        if kind == "ok":
            bucket = outcome[2]
            if bucket.overflow:
                self.overflow = True
            entry = bucket.find(self.key_hash)
            vote = ReplicaVote.absent(task) if entry is None \
                else ReplicaVote.present(task, entry)
        else:
            if kind == "stale":
                self.stale.append(task)
            elif kind == "config":
                self.config_mismatch = True
            vote = ReplicaVote.error(task)
        self.votes.append(vote)
        if not self.settled:
            decision = self.decision = evaluate(self.votes, self.asked,
                                                self.quorum)
            if decision.outcome in _DECIDED and (
                    self.await_task is None or
                    any(v.task == self.await_task for v in self.votes)):
                self.settled = True
        return vote

    def close(self) -> QuorumDecision:
        """No more votes will come (``await_task``'s included): decide
        over the ones in hand."""
        if not self.settled:
            if self.decision.outcome is QuorumOutcome.UNDECIDED:
                self.decision = evaluate(self.votes, len(self.votes),
                                         self.quorum)
            self.settled = self.decision.outcome in _DECIDED
        return self.decision

    def hazard(self) -> str:
        """Why an unsettled key must retry, most specific cause first."""
        if self.config_mismatch:
            return "config-mismatch"
        if self.stale:
            return "stale-view"
        return "inquorate"

    def source(self) -> ReplicaVote:
        """The PRESENT vote whose replica serves the datum (§5.1
        condition 4): ``await_task`` when it is in the quorum, else the
        quorum's first responder."""
        members = self.decision.members
        task = self.await_task if self.await_task in members else members[0]
        return next(vote for vote in self.votes if vote.task == task)
