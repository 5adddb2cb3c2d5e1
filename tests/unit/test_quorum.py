"""Unit tests for client-side quorum evaluation (§5.1)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.quorum import (Ballot, QuorumOutcome, ReplicaVote, VoteKind,
                               evaluate)
from repro.core.index import IndexRegion, ParsedIndexEntry, parse_bucket
from repro.core.version import VersionNumber
from repro.model import ModelState


def entry(version_n):
    return ParsedIndexEntry(way=0, key_hash=b"h" * 16,
                            version=VersionNumber(version_n, 0, 0),
                            region_id=1, offset=0, size=64, valid=True)


def present(task, n):
    return ReplicaVote.present(task, entry(n))


def absent(task):
    return ReplicaVote.absent(task)


def error(task):
    return ReplicaVote.error(task)


def test_two_matching_present_votes_decide():
    decision = evaluate([present("a", 5), present("b", 5)], 3, 2)
    assert decision.outcome is QuorumOutcome.PRESENT
    assert decision.version == VersionNumber(5, 0, 0)
    assert set(decision.members) == {"a", "b"}
    assert not decision.unanimous


def test_three_matching_votes_are_unanimous():
    decision = evaluate([present("a", 5), present("b", 5), present("c", 5)],
                        3, 2)
    assert decision.outcome is QuorumOutcome.PRESENT
    assert decision.unanimous


def test_two_absent_votes_decide_miss():
    decision = evaluate([absent("a"), absent("b")], 3, 2)
    assert decision.outcome is QuorumOutcome.ABSENT


def test_single_vote_undecided_with_outstanding():
    decision = evaluate([present("a", 5)], 3, 2)
    assert decision.outcome is QuorumOutcome.UNDECIDED


def test_disagreeing_votes_wait_for_third():
    decision = evaluate([present("a", 5), present("b", 6)], 3, 2)
    assert decision.outcome is QuorumOutcome.UNDECIDED


def test_third_vote_breaks_tie():
    decision = evaluate([present("a", 5), present("b", 6), present("c", 6)],
                        3, 2)
    assert decision.outcome is QuorumOutcome.PRESENT
    assert decision.version == VersionNumber(6, 0, 0)
    assert set(decision.members) == {"b", "c"}


def test_three_way_disagreement_is_inquorate():
    decision = evaluate([present("a", 1), present("b", 2), present("c", 3)],
                        3, 2)
    assert decision.outcome is QuorumOutcome.INQUORATE


def test_mixed_present_absent_inquorate():
    decision = evaluate([present("a", 1), absent("b"), present("c", 3)],
                        3, 2)
    assert decision.outcome is QuorumOutcome.INQUORATE


def test_errors_do_not_vote():
    decision = evaluate([error("a"), present("b", 5), present("c", 5)], 3, 2)
    assert decision.outcome is QuorumOutcome.PRESENT
    assert set(decision.members) == {"b", "c"}


def test_two_errors_one_vote_inquorate():
    decision = evaluate([error("a"), error("b"), present("c", 5)], 3, 2)
    assert decision.outcome is QuorumOutcome.INQUORATE


def test_error_then_undecided_while_votes_possible():
    decision = evaluate([error("a"), present("b", 5)], 3, 2)
    assert decision.outcome is QuorumOutcome.UNDECIDED


def test_r1_single_vote_decides():
    decision = evaluate([present("a", 5)], 1, 1)
    assert decision.outcome is QuorumOutcome.PRESENT
    assert decision.unanimous


def test_r1_absent_decides_miss():
    decision = evaluate([absent("a")], 1, 1)
    assert decision.outcome is QuorumOutcome.ABSENT


def test_absent_and_present_tie_with_quorum_two():
    # 1 present + 1 absent, one outstanding: still undecided.
    decision = evaluate([present("a", 5), absent("b")], 3, 2)
    assert decision.outcome is QuorumOutcome.UNDECIDED
    # Third vote resolves either way.
    with_third = evaluate([present("a", 5), absent("b"), absent("c")], 3, 2)
    assert with_third.outcome is QuorumOutcome.ABSENT


def test_all_error_votes_are_inquorate():
    decision = evaluate([error("a"), error("b"), error("c")], 3, 2)
    assert decision.outcome is QuorumOutcome.INQUORATE
    assert decision.members == ()


def test_error_plus_matching_quorum_is_dirty_not_unanimous():
    # One replica errored but two agree: a decided *dirty* quorum (§5.4)
    # — the unanimous flag must stay false even though every non-error
    # vote matched.
    decision = evaluate([error("a"), present("b", 7), present("c", 7)], 3, 2)
    assert decision.outcome is QuorumOutcome.PRESENT
    assert decision.version == VersionNumber(7, 0, 0)
    assert set(decision.members) == {"b", "c"}
    assert not decision.unanimous


def test_error_plus_matching_absent_quorum_is_dirty():
    decision = evaluate([error("a"), absent("b"), absent("c")], 3, 2)
    assert decision.outcome is QuorumOutcome.ABSENT
    assert not decision.unanimous


# -- Ballot: one key's run of the rule through one attempt ------------------------

KEY_HASH = b"h" * 16
_BUCKETS = {}


def bucket(version_n=None, overflow=False):
    """A fetched one-way bucket holding the key at ``version_n`` (or not
    at all) — real bytes, parsed the way the client parses them."""
    if (version_n, overflow) not in _BUCKETS:
        index = IndexRegion(1, 1, config_id=1)
        if version_n is not None:
            index.write_entry(0, 0, KEY_HASH, VersionNumber(version_n, 0, 0),
                              region_id=1, offset=0, size=64)
        index.set_overflow(0, overflow)
        _BUCKETS[version_n, overflow] = parse_bucket(
            index.arena.read(0, index.bucket_bytes), 1)
    return _BUCKETS[version_n, overflow]


def leg(spec):
    """``"a=5"`` / ``"a=absent"`` / ``"a=stale|config|down"`` as the
    tagged outcome ``_rma_leg`` hands the client for task ``a``."""
    task, _, what = spec.partition("=")
    if what in ("stale", "config", "down"):
        return task, (what, task, 2 if what == "config" else None)
    return task, ("ok", task,
                  bucket(None if what == "absent" else int(what)))


def cast_all(ballot, specs):
    for spec in specs.split():
        ballot.cast(*leg(spec))
    return ballot


#: (legs in arrival order, await_task) ->
#:     (settled, outcome, version, members, hazard if unsettled, source)
BALLOTS = {
    ("a=5 b=5", None): (True, "present", 5, "ab", None, "a"),
    ("a=5 b=6 c=6", None): (True, "present", 6, "bc", None, "b"),
    ("a=absent b=absent", None): (True, "absent", None, "ab", None, None),
    ("a=5 b=absent c=absent", None):
        (True, "absent", None, "bc", None, None),
    ("a=5", None): (False, "undecided", None, "", "inquorate", None),
    ("a=5 b=down", None): (False, "undecided", None, "", "inquorate", None),
    ("a=5 b=down c=down", None):
        (False, "inquorate", None, "", "inquorate", None),
    ("a=1 b=2 c=3", None): (False, "inquorate", None, "", "inquorate", None),
    ("a=stale b=down c=5", None):
        (False, "inquorate", None, "", "stale-view", None),
    # A config mismatch outranks a stale view: the refresh rebuilds both.
    ("a=stale b=config c=5", None):
        (False, "inquorate", None, "", "config-mismatch", None),
    # Decided, but the awaited primary has not voted: not settled yet.
    ("b=5 c=5", "a"): (False, "present", 5, "bc", "inquorate", None),
    ("b=absent c=absent", "a"):
        (False, "absent", None, "bc", "inquorate", None),
    # The awaited vote lands and joins the quorum: it serves the datum.
    ("b=5 c=5 a=5", "a"): (True, "present", 5, "bca", None, "a"),
    ("b=absent c=absent a=absent", "a"):
        (True, "absent", None, "bca", None, None),
    # ... or it does not, and the quorum's first responder serves.
    ("b=5 c=5 a=4", "a"): (True, "present", 5, "bc", None, "b"),
    ("b=5 c=5 a=down", "a"): (True, "present", 5, "bc", None, "b"),
    ("a=5 b=5", "a"): (True, "present", 5, "ab", None, "a"),
}


@pytest.mark.parametrize("specs,await_task", list(BALLOTS),
                         ids=[f"{s}|await={a}" for s, a in BALLOTS])
def test_ballot_settles_as_tabled(specs, await_task):
    settled, outcome, version, members, hazard, source = \
        BALLOTS[specs, await_task]
    ballot = cast_all(Ballot(KEY_HASH, 3, 2, await_task), specs)
    decision = ballot.decision
    assert ballot.settled is settled
    assert decision.outcome.value == outcome
    assert decision.version == (version and VersionNumber(version, 0, 0))
    assert "".join(decision.members) == members
    assert decision.unanimous == (len(members) == 3)
    if not settled:
        assert ballot.hazard() == hazard
    if source is not None:
        vote = ballot.source()
        assert (vote.task, vote.kind) == (source, VoteKind.PRESENT)
        assert vote.entry.version == decision.version


def test_ballot_records_what_the_legs_showed():
    ballot = cast_all(Ballot(KEY_HASH, 3, 2), "a=stale b=config c=5")
    assert [v.kind for v in ballot.votes] == \
        [VoteKind.ERROR, VoteKind.ERROR, VoteKind.PRESENT]
    assert ballot.stale == ["a"] and ballot.config_mismatch
    assert not ballot.overflow
    spilled = Ballot(KEY_HASH, 3, 2)
    vote = spilled.cast("a", ("ok", "a", bucket(overflow=True)))
    assert spilled.overflow and vote.kind is VoteKind.ABSENT


def test_settled_ballot_records_late_votes_but_does_not_move():
    ballot = cast_all(Ballot(KEY_HASH, 3, 2), "a=5 b=5")
    decision = ballot.decision
    ballot.cast(*leg("c=stale"))
    assert ballot.decision is decision and not decision.unanimous
    assert len(ballot.votes) == 3 and ballot.stale == ["c"]
    assert ballot.close() is decision


def test_close_decides_over_the_votes_in_hand():
    # Two legs of three never reported: one vote cannot make a quorum.
    ballot = cast_all(Ballot(KEY_HASH, 3, 2), "a=5")
    assert ballot.close().outcome is QuorumOutcome.INQUORATE
    assert not ballot.settled and ballot.hazard() == "inquorate"
    # The awaited replica never reported: the quorum in hand stands.
    ballot = cast_all(Ballot(KEY_HASH, 3, 2, await_task="a"), "b=5 c=5")
    assert ballot.close().outcome is QuorumOutcome.PRESENT
    assert ballot.settled and ballot.source().task == "b"


def test_cohort_of_one_decides_alone():
    ballot = cast_all(Ballot(KEY_HASH, 1, 1), "a=7")
    assert ballot.settled and ballot.decision.unanimous
    assert ballot.decision.members == ("a",)
    assert ballot.source().entry.version == VersionNumber(7, 0, 0)


@settings(max_examples=200, deadline=None)
@given(order=st.permutations("abc"),
       whats=st.lists(st.sampled_from(
           ["1", "2", "3", "absent", "stale", "config", "down"]),
           min_size=3, max_size=3),
       await_task=st.sampled_from([None, "a", "b", "c"]))
def test_ballot_is_evaluate_until_it_settles(order, whats, await_task):
    """After every cast an unsettled ballot's decision is exactly
    ``evaluate(votes so far, asked, quorum)``; it settles when that is
    PRESENT / ABSENT and the awaited task (if any) has voted; once
    settled it never changes."""
    ballot = Ballot(KEY_HASH, 3, 2, await_task)
    frozen = None
    for task, what in zip(order, whats):
        ballot.cast(*leg(f"{task}={what}"))
        if frozen is not None:
            assert ballot.settled and ballot.decision is frozen
            continue
        assert ballot.decision == evaluate(ballot.votes, 3, 2)
        decided = ballot.decision.outcome in (QuorumOutcome.PRESENT,
                                              QuorumOutcome.ABSENT)
        awaited = await_task is None or any(
            vote.task == await_task for vote in ballot.votes)
        assert ballot.settled == (decided and awaited)
        if ballot.settled:
            frozen = ballot.decision
    assert len(ballot.votes) == 3


def test_ballot_refines_the_model():
    """The model's ``quorum_reads`` is what the code's ballot decides:
    for every stored triple, every single crash and every arrival order,
    a ballot fed those replies — the crashed replica as a ``down`` leg,
    stopping once settled as ``_collect_votes`` does — reads only
    outcomes the model allows, and is inquorate exactly when the model
    allows none (and then only after every live replica voted)."""
    cases = 0
    for stored in itertools.product((0, 1, 2), repeat=3):
        for crashed in (None, 0, 1, 2):
            allowed = ModelState(stored=stored, crashed=crashed) \
                .quorum_reads()
            for order in itertools.permutations(range(3)):
                cases += 1
                ballot = Ballot(KEY_HASH, 3, 2)
                for replica in order:
                    what = "down" if replica == crashed else \
                        stored[replica] or "absent"
                    ballot.cast(*leg(f"r{replica}={what}"))
                    if ballot.settled:
                        break
                decision = ballot.close()
                if ballot.settled:
                    read = decision.version.truetime_micros \
                        if decision.outcome is QuorumOutcome.PRESENT else 0
                    assert read in allowed, (stored, crashed, order)
                else:
                    assert decision.outcome is QuorumOutcome.INQUORATE
                    assert len(ballot.votes) == 3
                assert ballot.settled == bool(allowed), \
                    (stored, crashed, order)
    assert cases == 648
