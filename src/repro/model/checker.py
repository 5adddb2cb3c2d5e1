"""Breadth-first explicit-state checker for the R=3.2 model.

Enumerates every reachable interleaving of a bounded workload — clients
issuing SETs/ERASEs, the network delivering them to replicas in any
order, at most one crash and a repair-on-restart — and checks the
safety invariants the paper relied on TLA+ for (§5.1):

* **I1 Durability under a single failure** — once a SET is acknowledged
  (reached a quorum) and not superseded by a newer mutation, every
  decided quorum read returns it: its version is readable from at least
  QUORUM live replicas, even in crashed states.
* **I2 Monotonicity** — a replica's effective version (stored or erase
  floor) never decreases.
* **I3 No resurrection** — after an acknowledged ERASE with no newer
  SET anywhere, no decided quorum read returns a value.
* **I4 Quorum existence** — with no mutations in flight and no crash,
  at least a quorum of replicas agree (dirty quorums are legal and get
  scan-repaired; three-way divergence never happens).
* **I5 CAS lost-update freedom** — two CAS conditioned on the same
  expected version never both reach an applied quorum (the per-replica
  check-and-install must be atomic; pigeonhole over three replicas then
  forbids double success).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .state import ABSENT, QUORUM, REPLICAS, ModelState


@dataclass
class Counterexample:
    invariant: str
    state: ModelState
    detail: str
    trace: Tuple[str, ...]


@dataclass
class CheckResult:
    states_explored: int
    transitions: int
    counterexample: Optional[Counterexample] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def successors(state: ModelState, ops_budget: Dict[str, int]
               ) -> List[Tuple[str, ModelState, Dict[str, int]]]:
    """All (action-label, next-state, remaining-budget) transitions."""
    out = []
    # Clients issue new mutations while budget remains.
    for kind in ("set", "erase"):
        if ops_budget.get(kind, 0) > 0:
            budget = dict(ops_budget)
            budget[kind] -= 1
            out.append((f"issue-{kind}", state.issue(kind), budget))
    if ops_budget.get("cas", 0) > 0:
        # A CAS may be conditioned on any version the client could have
        # read (including ABSENT for creation).
        for expected in range(state.issued_max + 1):
            budget = dict(ops_budget)
            budget["cas"] -= 1
            out.append((f"issue-cas@exp{expected}",
                        state.issue("cas", expected=expected), budget))
    # The network delivers any pending mutation to any live replica that
    # has not yet processed it.
    for mutation in state.pending:
        for replica in state.live_replicas():
            if replica not in mutation.delivered:
                out.append((
                    f"deliver-{mutation.kind}@v{mutation.version}->r{replica}",
                    state.apply(mutation, replica), ops_budget))
    # At most one crash; it may happen at any time.
    if state.crashed is None and ops_budget.get("crash", 0) > 0:
        for replica in range(REPLICAS):
            budget = dict(ops_budget)
            budget["crash"] -= 1
            out.append((f"crash-r{replica}", state.crash(replica), budget))
    # A crashed replica may restart (with repair) at any time.
    if state.crashed is not None:
        out.append((f"restart-r{state.crashed}",
                    state.restart_with_repair(), ops_budget))
    # The periodic cohort scan may repair the cohort whenever it is
    # divergent (§5.4); the repair installs at a fresh VersionNumber.
    if state.is_divergent():
        out.append(("scan-repair", state.scan_repair(), ops_budget))
    return out


def _effective(state: ModelState, replica: int) -> int:
    return max(state.stored[replica], state.erased[replica])


def check_invariants(state: ModelState, prev: Optional[ModelState],
                     crash_free: bool = True,
                     cas_free: bool = True) -> Optional[str]:
    """Return a violation description, or None if all invariants hold.

    ``crash_free`` scopes I3: tombstones live on backend heaps, so an
    acked ERASE whose tombstone was lost in a crash may legitimately be
    out-survived by a value a repair re-installs (cache semantics; the
    paper promises "never inconsistent" versioning, not durable erases).

    ``cas_free`` scopes I4: a CAS that loses its race applies at a
    minority of replicas (client sees FAILED), which can legally leave
    three-way divergence until a scan repair reconciles it — so exact
    quorum-existence is only an invariant for set/erase workloads.
    """
    if prev is not None:
        violation = _check_edge(state, prev)
        if violation is not None:
            return violation
    return _check_state(state, crash_free, cas_free)


def _check_edge(state: ModelState, prev: ModelState) -> Optional[str]:
    """I2, the one invariant of a transition rather than of a state:
    per-replica effective versions never decrease (vs. parent), except
    for a crash wiping a replica (checked by comparing only replicas
    live in both states and not just-restarted)."""
    for replica in range(REPLICAS):
        if replica == state.crashed or replica == prev.crashed:
            continue
        if _effective(state, replica) < _effective(prev, replica):
            return (f"I2 monotonicity: replica {replica} regressed "
                    f"{_effective(prev, replica)} -> "
                    f"{_effective(state, replica)}")
    return None


def _check_state(state: ModelState, crash_free: bool,
                 cas_free: bool) -> Optional[str]:
    """I1 and I3–I5: functions of the state and its two scopes alone."""
    reads = state.quorum_reads()

    # I1: an acked, unsuperseded SET whose deliveries to live replicas
    # have quiesced must be what every decided read sees. (While a
    # delivery is still in flight a transient dirty quorum is legal —
    # the client retries; the paper's repairs bound how long it lasts.)
    for version in state.acked_sets():
        if state.superseded_by(version):
            continue
        in_flight = any(
            m.version == version and
            any(r not in m.delivered for r in state.live_replicas())
            for m in state.pending)
        if in_flight:
            continue
        holders = sum(1 for i in state.live_replicas()
                      if state.stored[i] == version)
        if holders < QUORUM:
            return (f"I1 durability: acked set v{version} readable from "
                    f"only {holders} live replicas in {state}")
        for outcome in reads:
            if outcome != version:
                return (f"I1 durability: decided read returned {outcome} "
                        f"while acked, unsuperseded set v{version} exists")

    # I3: an acked ERASE with no newer SET -> no decided read returns
    # data (crash-free executions only; see docstring).
    acked_erases = []
    if crash_free:
        acked_erases = [m.version for m in state.pending
                        if m.kind == "erase" and m.acked]
    if crash_free:
        for i in range(REPLICAS):
            if state.erased[i] != ABSENT and \
                    sum(1 for j in range(REPLICAS)
                        if state.erased[j] >= state.erased[i]) >= QUORUM:
                acked_erases.append(state.erased[i])
    for version in acked_erases:
        newer_set_exists = any(
            m.kind == "set" and m.version > version for m in state.pending
        ) or any(s > version for s in state.stored)
        if newer_set_exists:
            continue
        for outcome in reads:
            if outcome != ABSENT:
                return (f"I3 resurrection: read returned v{outcome} after "
                        f"acked erase v{version} with no newer set")

    # I5: no two CAS with the same expectation both reach an applied
    # quorum — the lost-update freedom CAS exists to provide.
    cas_by_expected = {}
    for m in state.cas_outcomes():
        if m.ack_applied:
            cas_by_expected.setdefault(m.expected, []).append(m.version)
    for expected, versions in cas_by_expected.items():
        if len(versions) > 1:
            return (f"I5 lost-update: CAS {sorted(versions)} all applied "
                    f"at a quorum against expected v{expected}")

    # I4: quiescent, crash-free states always contain a quorum — at most
    # one replica may disagree (a dirty quorum, §5.4), never all three.
    # Full convergence is a liveness property delivered by scan repairs.
    if cas_free and not state.pending and state.crashed is None:
        counts = {}
        for s in state.stored:
            counts[s] = counts.get(s, 0) + 1
        if max(counts.values()) < QUORUM:
            return f"I4 quorum-exists: three-way divergence {state.stored}"

    return None


def check(max_sets: int = 2, max_erases: int = 1, max_cas: int = 0,
          allow_crash: bool = True) -> CheckResult:
    """Explore all interleavings of a bounded workload; check invariants."""
    initial_budget = {"set": max_sets, "erase": max_erases,
                      "cas": max_cas,
                      "crash": 1 if allow_crash else 0}
    initial = ModelState()

    seen: Set[Tuple[ModelState, Tuple[Tuple[str, int], ...]]] = set()
    queue = deque()

    def budget_key(budget):
        return tuple(sorted(budget.items()))

    queue.append((initial, initial_budget, ()))
    seen.add((initial, budget_key(initial_budget)))
    states = 0
    transitions = 0
    cas_free = initial_budget["cas"] == 0

    while queue:
        state, budget, trace = queue.popleft()
        states += 1
        for label, nxt, nxt_budget in successors(state, budget):
            transitions += 1
            # I2 belongs to the edge; the state invariants depend only on
            # what ``key`` holds (``crash_free`` is a function of it,
            # ``cas_free`` of the run), so they are checked once per key.
            key = (nxt, budget_key(nxt_budget))
            fresh = key not in seen
            violation = _check_edge(nxt, state)
            if violation is None and fresh:
                crash_free = nxt_budget.get("crash", 0) == \
                    initial_budget["crash"] and nxt.crashed is None
                violation = _check_state(nxt, crash_free, cas_free)
            if violation is not None:
                return CheckResult(states, transitions, Counterexample(
                    invariant=violation.split(":")[0],
                    state=nxt, detail=violation,
                    trace=trace + (label,)))
            if fresh:
                seen.add(key)
                queue.append((nxt, nxt_budget, trace + (label,)))

    return CheckResult(states, transitions)


def check_double_failure_breaks() -> bool:
    """Sanity counterpoint: with two simultaneous failures the durability
    guarantee genuinely does not hold (quorum cannot form), confirming
    the model is not vacuously safe."""
    state = ModelState()
    state = state.issue("set")
    mutation = state.pending[0]
    state = state.apply(mutation, 0)
    state = state.apply(mutation, 1)   # acked at a quorum
    # Manually wipe two replicas (the model type allows only one crash;
    # emulate the second by zeroing state).
    stored = list(state.stored)
    stored[0] = ABSENT
    stored[1] = ABSENT
    broken = ModelState(tuple(stored), state.erased, (), None,
                        state.issued_max)
    holders = sum(1 for s in broken.stored if s == mutation.version)
    return holders < QUORUM
