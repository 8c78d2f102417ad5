"""Directly-follows accumulation and the dependency measure."""

import random

import pytest

from enclavemine.mining.dfg import DfgState, EmptyCase, dependency, hm_observe
from enclavemine.model import Event, EventLog, extract_case, group_by_iid, merge_all

from doubles import make_random_log


def _case(activities, iid="c1", provisioner="p"):
    events = tuple(
        Event(
            event_id="%s_%03d" % (iid, i),
            iid=iid,
            activity=act,
            timestamp=i * 10,
            provisioner_id=provisioner,
        )
        for i, act in enumerate(activities)
    )
    return EventLog(events)


@pytest.fixture()
def two_trace_state(three_partitions):
    full = merge_all(three_partitions.values())
    state = DfgState()
    hm_observe(state, extract_case(full, "312"))
    hm_observe(state, extract_case(full, "711"))
    return state


def test_short_trace_pair_counts(three_partitions):
    full = merge_all(three_partitions.values())
    state = hm_observe(DfgState(), extract_case(full, "711"))
    assert len(state.directly_follows) == 11
    assert set(state.directly_follows.values()) == {1}
    assert state.cases_seen == 1
    assert dict(state.start_counts) == {"PH": 1}
    assert dict(state.end_counts) == {"DP": 1}


def test_dependency_values_on_fixture(two_trace_state):
    # AD>TP occurs once, TP>AD never: (1-0)/(1+0+1).
    assert dependency(two_trace_state, "AD", "TP") == pytest.approx(0.5)
    # PCD>DPH and DPH>PCD once each, so the signal cancels.
    assert dependency(two_trace_state, "PCD", "DPH") == pytest.approx(0.0)
    assert dependency(two_trace_state, "DPH", "PCD") == pytest.approx(0.0)
    # Both traces open PH>COPA: (2-0)/(2+0+1).
    assert dependency(two_trace_state, "PH", "COPA") == pytest.approx(2 / 3)


def test_dependency_is_antisymmetric(two_trace_state):
    acts = sorted(two_trace_state.activity_counts)
    for a in acts:
        for b in acts:
            if a != b:
                assert dependency(two_trace_state, a, b) == pytest.approx(
                    -dependency(two_trace_state, b, a)
                )


def test_self_dependency():
    state = hm_observe(DfgState(), _case(["a"] * 10))
    assert state.directly_follows[("a", "a")] == 9
    assert dependency(state, "a", "a") == pytest.approx(0.9)


def test_loop2_pattern_counting():
    state = hm_observe(DfgState(), _case(list("ababa")))
    assert state.loop2_counts[("a", "b")] == 2
    assert state.loop2_counts[("b", "a")] == 1
    # aaa is a length-one loop, not a length-two pattern.
    state2 = hm_observe(DfgState(), _case(["a", "a", "a"]))
    assert not state2.loop2_counts


def test_empty_case_rejected():
    with pytest.raises(EmptyCase):
        hm_observe(DfgState(), EventLog())


def test_multi_iid_log_rejected():
    rng = random.Random(3)
    log = make_random_log(rng, 2, ["p"])
    with pytest.raises(ValueError):
        hm_observe(DfgState(), log)


def test_observation_order_is_irrelevant():
    rng = random.Random(11)
    log = make_random_log(rng, 8, ["p1", "p2"])
    cases = list(group_by_iid(log).values())
    forward = DfgState()
    for c in cases:
        hm_observe(forward, c)
    backward = DfgState()
    for c in reversed(cases):
        hm_observe(backward, c)
    assert forward == backward


def test_counter_conservation():
    rng = random.Random(17)
    log = make_random_log(rng, 20, ["p1", "p2", "p3"])
    state = DfgState()
    total_events = 0
    for case in group_by_iid(log).values():
        hm_observe(state, case)
        total_events += len(case)
    assert sum(state.activity_counts.values()) == total_events
    assert sum(state.directly_follows.values()) == total_events - state.cases_seen
    assert sum(state.start_counts.values()) == state.cases_seen
    assert sum(state.end_counts.values()) == state.cases_seen
