"""Net discovery from directly-follows counters.

Small synthetic traces exercise each structural construct in isolation; the
scenario check pins the label set the generator is expected to produce.
"""

import copy

import pytest

from enclavemine.mining.dfg import DfgState, hm_observe
from enclavemine.mining.heuristics import (
    HeuristicsConfig,
    NoObservations,
    Transition,
    dependency_graph,
    hm_finalize,
)
from enclavemine.model import Event, EventLog, group_by_iid
from enclavemine.scenario import ALL_ACTIVITIES, generate_scenario_log


def _observe(*traces, repeat=1):
    state = DfgState()
    n = 0
    for _ in range(repeat):
        for trace in traces:
            events = tuple(
                Event(
                    event_id="e%05d" % (n * 100 + i),
                    iid="c%04d" % n,
                    activity=act,
                    timestamp=i,
                    provisioner_id="p",
                )
                for i, act in enumerate(trace)
            )
            hm_observe(state, EventLog(events))
            n += 1
    return state


def test_no_observations():
    with pytest.raises(NoObservations):
        hm_finalize(DfgState())


def test_two_step_sequence():
    net = hm_finalize(_observe(["A", "B"]))
    assert net.places == ("p__A__B", "sink", "source")
    assert [t.tid for t in net.transitions] == ["t_A", "t_B"]
    assert net.arcs == (
        ("p__A__B", "t_B"),
        ("source", "t_A"),
        ("t_A", "p__A__B"),
        ("t_B", "sink"),
    )


def test_below_threshold_without_rescue():
    # A single observation gives dependency 1/2, below the default 0.9;
    # with the connectivity rescue off the arc disappears.
    cfg = HeuristicsConfig(all_connected=False)
    arcs = dependency_graph(_observe(["A", "B"]), cfg)
    assert arcs == set()
    net = hm_finalize(_observe(["A", "B"]), cfg)
    assert net.arcs == (("source", "t_A"), ("t_B", "sink"))


def test_threshold_cleared_by_repetition():
    # Ten observations: dependency 10/11 clears 0.9 without the rescue.
    cfg = HeuristicsConfig(all_connected=False)
    arcs = dependency_graph(_observe(["A", "B"], repeat=10), cfg)
    assert arcs == {("A", "B")}


def test_xor_split_and_join():
    state = _observe(["a", "b", "d"], ["a", "c", "d"], repeat=10)
    net = hm_finalize(state)
    assert "po__a__b+c" in net.places
    assert "pi__b+c__d" in net.places
    arcs = set(net.arcs)
    assert ("t_a", "po__a__b+c") in arcs
    assert ("po__a__b+c", "t_b") in arcs
    assert ("po__a__b+c", "t_c") in arcs
    assert ("t_b", "pi__b+c__d") in arcs
    assert ("t_c", "pi__b+c__d") in arcs
    assert ("pi__b+c__d", "t_d") in arcs
    assert not [t for t in net.transitions if t.label is None]


def test_and_split_and_join():
    # b and c interleave freely between a and d, so they are parallel and
    # each keeps its own place on both sides.
    state = _observe(["a", "b", "c", "d"], ["a", "c", "b", "d"], repeat=10)
    net = hm_finalize(state)
    for pid in ("p__a__b", "p__a__c", "p__b__d", "p__c__d"):
        assert pid in net.places
    arcs = set(net.arcs)
    assert ("t_a", "p__a__b") in arcs and ("t_a", "p__a__c") in arcs
    assert ("p__b__d", "t_d") in arcs and ("p__c__d", "t_d") in arcs


def test_silent_transition_bridges_double_groups():
    state = _observe(
        ["a", "b", "z"],
        ["a", "c", "z"],
        ["d", "b", "z"],
        ["d", "c", "z"],
        repeat=10,
    )
    net = hm_finalize(state)
    taus = [t for t in net.transitions if t.label is None]
    assert {t.tid for t in taus} == {
        "tau__a__b",
        "tau__a__c",
        "tau__d__b",
        "tau__d__c",
    }
    arcs = set(net.arcs)
    assert ("po__a__b+c", "tau__a__b") in arcs
    assert ("tau__a__b", "pi__a+d__b") in arcs
    assert ("pi__a+d__b", "t_b") in arcs


def test_length_two_loop_recovered():
    # (ab)^5a: directly-follows cancels to dependency 0, only the a-b-a
    # pattern counter can justify the pair of arcs.
    state = _observe(list("abababababa"))
    cfg = HeuristicsConfig(all_connected=False)
    arcs = dependency_graph(state, cfg)
    assert ("a", "b") in arcs and ("b", "a") in arcs
    net = hm_finalize(state, cfg)
    assert "p__a__b" in net.places and "p__b__a" in net.places


def test_length_one_loop_becomes_cycling_transition():
    state = _observe(["x"] + ["a"] * 10 + ["y"])
    net = hm_finalize(state)
    loops = [t for t in net.transitions if t.tid.startswith("t_loop__")]
    assert loops == [Transition("t_loop__a", "a")]
    arcs = set(net.arcs)
    assert ("p__a__y", "t_loop__a") in arcs
    assert ("t_loop__a", "p__a__y") in arcs


def test_labels_are_activity_names():
    state = _observe(["A", "B"], ["A", "C"])
    assert {t.label for t in hm_finalize(state).transitions} - {None} == {"A", "B", "C"}


def test_awkward_labels_sanitized():
    net = hm_finalize(_observe(["order placed", "pay/refund"]))
    assert "t_order_placed" in {t.tid for t in net.transitions}
    assert "t_pay_refund" in {t.tid for t in net.transitions}
    assert {t.label for t in net.transitions} - {None} == {"order placed", "pay/refund"}


def test_scenario_net_covers_every_activity():
    log = generate_scenario_log(60, seed=1)
    state = DfgState()
    for case in group_by_iid(log).values():
        hm_observe(state, case)
    net = hm_finalize(state)
    assert {t.label for t in net.transitions} - {None} == set(ALL_ACTIVITIES)
    assert len(ALL_ACTIVITIES) == 19


def test_finalize_is_pure():
    log = generate_scenario_log(25, seed=4)
    state = DfgState()
    for case in group_by_iid(log).values():
        hm_observe(state, case)
    before = copy.deepcopy(state)
    a = hm_finalize(state)
    b = hm_finalize(state)
    assert a == b
    assert state == before


def test_config_params_are_stable():
    cfg = HeuristicsConfig()
    assert cfg.as_params() == HeuristicsConfig().as_params()
    assert dict(cfg.as_params())["dependency_threshold"] == "0.9"
