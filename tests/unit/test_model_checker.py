"""Tests for the R=3.2 explicit-state model checker (§5.1 footnote 3)."""

import pytest

from repro.model import (ABSENT, ModelState, check,
                         check_double_failure_breaks, check_invariants,
                         successors)


# -- ModelState mechanics ----------------------------------------------------

def test_initial_state_is_empty():
    state = ModelState()
    assert state.stored == (0, 0, 0)
    assert state.pending == ()
    assert state.crashed is None


def test_issue_and_deliver_set():
    state = ModelState().issue("set")
    assert len(state.pending) == 1
    mutation = state.pending[0]
    state = state.apply(mutation, 0)
    assert state.stored[0] == mutation.version
    assert state.stored[1] == ABSENT


def test_monotonic_apply_rejects_stale():
    state = ModelState().issue("set").issue("set")
    old, new = state.pending
    state = state.apply(new, 0)
    state = state.apply(old, 0)   # stale: must not regress
    assert state.stored[0] == new.version


def test_erase_sets_tombstone_floor():
    state = ModelState().issue("set")
    set_m = state.pending[0]
    for r in range(3):
        state = state.apply(set_m, r)
    state = state.issue("erase")
    erase_m = state.pending[0]
    state = state.apply(erase_m, 1)
    assert state.stored[1] == ABSENT
    assert state.erased[1] == erase_m.version
    # A later redelivery of the old set must not resurrect.
    assert state.stored[1] == ABSENT


def test_fully_delivered_mutations_leave_pending():
    state = ModelState().issue("set")
    mutation = state.pending[0]
    for r in range(3):
        state = state.apply(mutation, r)
    assert state.pending == ()


def test_crash_wipes_replica_and_restart_repairs():
    state = ModelState().issue("set")
    mutation = state.pending[0]
    for r in range(3):
        state = state.apply(mutation, r)
    state = state.crash(1)
    assert state.stored[1] == ABSENT
    assert state.crashed == 1
    state = state.restart_with_repair()
    assert state.crashed is None
    assert state.stored[1] == mutation.version


def test_restart_repair_adopts_erase_floor():
    state = ModelState().issue("erase")
    erase_m = state.pending[0]
    for r in range(3):
        state = state.apply(erase_m, r)
    state = state.crash(0)
    state = state.restart_with_repair()
    assert state.erased[0] == erase_m.version
    assert state.stored[0] == ABSENT


def test_at_most_one_crash():
    state = ModelState().crash(0)
    with pytest.raises(ValueError):
        state.crash(1)


def test_cannot_deliver_to_crashed_replica():
    state = ModelState().issue("set").crash(0)
    with pytest.raises(ValueError):
        state.apply(state.pending[0], 0)


def test_quorum_reads_decide_on_agreement():
    state = ModelState().issue("set")
    mutation = state.pending[0]
    state = state.apply(mutation, 0)
    state = state.apply(mutation, 1)
    reads = state.quorum_reads()
    # Both "v (replicas 0,1 agree)" and nothing else is decided; the
    # third replica disagrees with each of them individually.
    assert mutation.version in reads
    assert ABSENT not in reads


def test_acked_sets_reconstructed_from_replica_state():
    state = ModelState().issue("set")
    mutation = state.pending[0]
    for r in range(3):
        state = state.apply(mutation, r)
    assert state.acked_sets() == (mutation.version,)


# -- the checker --------------------------------------------------------------

def test_successors_cover_issue_deliver_crash():
    state = ModelState().issue("set")
    labels = {label for label, _s, _b in successors(
        state, {"set": 1, "erase": 0, "crash": 1})}
    assert any(l.startswith("issue-set") for l in labels)
    assert any(l.startswith("deliver-set") for l in labels)
    assert any(l.startswith("crash") for l in labels)


def test_invariants_hold_on_simple_path():
    state = ModelState()
    prev = None
    state = state.issue("set")
    assert check_invariants(state, prev) is None
    mutation = state.pending[0]
    for r in range(3):
        prev, state = state, state.apply(mutation, r)
        assert check_invariants(state, prev) is None


def test_full_check_no_crash():
    result = check(max_sets=2, max_erases=1, allow_crash=False)
    assert result.ok, result.counterexample
    assert result.states_explored > 100


def test_full_check_single_failure_tolerance():
    """The paper's TLA+ result: R=3.2 is safe under a single failure."""
    result = check(max_sets=2, max_erases=1, allow_crash=True)
    assert result.ok, (result.counterexample.detail,
                       result.counterexample.trace)
    assert result.states_explored > 1000


def test_model_is_not_vacuous():
    """Two failures genuinely break durability — the invariants bite."""
    assert check_double_failure_breaks()


def test_injected_bug_is_caught(monkeypatch):
    """Drop the shared apply rule's monotonic check and the checker must
    find a counterexample."""
    from repro.core import tombstone

    def last_delivery_wins(incoming, floor, expected=None):
        if expected is not None and floor != expected:
            return False, "version-mismatch"
        return True, "ok"

    monkeypatch.setattr(tombstone, "arbitrate", last_delivery_wins)
    result = check(max_sets=2, max_erases=1, allow_crash=False)
    assert not result.ok
    assert result.counterexample.detail.startswith("I2")


# -- CAS in the model (I5 lost-update freedom) -------------------------------

def test_cas_applies_only_on_expectation_match():
    state = ModelState().issue("set")
    set_m = state.pending[0]
    for r in range(3):
        state = state.apply(set_m, r)
    state = state.issue("cas", expected=set_m.version)
    cas_m = state.pending[0]
    state = state.apply(cas_m, 0)
    assert state.stored[0] == cas_m.version
    # A second CAS against the now-stale expectation is rejected.
    state = state.issue("cas", expected=set_m.version)
    stale = state.pending[-1]
    state = state.apply(stale, 0)
    assert state.stored[0] == cas_m.version  # unchanged


def test_cas_tracks_applied_separately_from_delivered():
    state = ModelState().issue("cas", expected=5)  # nothing stored: reject
    cas_m = state.pending[0]
    state = state.apply(cas_m, 0)
    remaining = state.pending[0]
    assert 0 in remaining.delivered
    assert 0 not in remaining.applied


def test_full_check_with_cas_holds_lost_update_freedom():
    from repro.model import check
    # Two racing CAS (the I5-critical shape) plus a set+cas combination;
    # bigger bounds (1 set + 2 cas: ~245k states, ok) run via the CLI.
    result = check(max_sets=0, max_erases=0, max_cas=2, allow_crash=False)
    assert result.ok, result.counterexample and result.counterexample.detail
    result = check(max_sets=1, max_erases=0, max_cas=1, allow_crash=False)
    assert result.ok, result.counterexample and result.counterexample.detail


def test_injected_cas_toctou_bug_is_caught(monkeypatch):
    """Let the shared rule apply a CAS on a mismatch (its expected check
    done earlier, outside the key lock) and the checker must produce an
    I5 counterexample."""
    from repro.core import tombstone

    real = tombstone.arbitrate

    def unconditional(incoming, floor, expected=None):
        return real(incoming, floor)

    monkeypatch.setattr(tombstone, "arbitrate", unconditional)
    result = check(max_sets=0, max_erases=0, max_cas=2, allow_crash=False)
    assert not result.ok
    assert result.counterexample.detail.startswith("I5")


def test_cas_after_erase_decided_alike_by_model_and_backend():
    """set -> erase -> CAS(expected absent) -> CAS(expected the erase):
    one model replica and one real backend give the same verdicts — a
    CAS conditions on the erase floor, not on "absent"."""
    from repro.core import (Cell, CellSpec, ReplicationMode, TrueTime,
                            VersionFactory, VersionNumber)
    from repro.rpc import Principal, connect

    state, model = ModelState(), []
    for kind, expected in (("set", -1), ("erase", -1), ("cas", ABSENT),
                           ("cas", 2)):
        state = state.issue(kind, expected=expected)
        mutation = state.pending[-1]
        model.append(state.verdict(mutation, 0))
        state = state.apply(mutation, 0)

    cell = Cell(CellSpec(mode=ReplicationMode.R1, num_shards=1))
    backend = cell.backend_by_task("backend-0")
    channel = connect(cell.sim, cell.fabric,
                      cell.fabric.add_host("host/test-driver"),
                      backend.rpc_server, Principal("test"))
    versions = VersionFactory(77, TrueTime(cell.sim))
    v1, v2, v3, v4 = (versions.next() for _ in range(4))
    calls = [("Set", {"key": b"k", "value": b"v", "version": v1.pack()}),
             ("Erase", {"key": b"k", "version": v2.pack()})]
    for new, expected in ((v3, VersionNumber.zero()), (v4, v2)):
        calls.append(("Cas", {"key": b"k", "value": b"c",
                              "new_version": new.pack(),
                              "expected_version": expected.pack()}))

    def driver():
        replies = []
        for method, payload in calls:
            reply = yield from channel.call(method, payload)
            replies.append((reply["applied"], reply["reason"]))
        return replies

    real = cell.sim.run(until=cell.sim.process(driver()))
    assert model == real == [(True, "ok"), (True, "ok"),
                             (False, "version-mismatch"), (True, "ok")]
