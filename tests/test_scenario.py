"""Synthetic scenario generator."""

import hashlib
import statistics

import pytest

from enclavemine.model import group_by_iid, iid_set
from enclavemine.scenario import (
    ALL_ACTIVITIES,
    LONG_VARIANT,
    ORG_CLINIC,
    ORG_HOSPITAL,
    ORG_PHARMA,
    SHORT_VARIANT,
    default_org_map,
    generate_scenario_log,
    max_case_events,
    org_map_for,
    scenario_declare_model,
)
from enclavemine.wire import encode_log


def test_variant_vocabulary():
    assert len(LONG_VARIANT) == 18
    assert len(SHORT_VARIANT) == 12
    assert set(LONG_VARIANT) | set(SHORT_VARIANT) == set(ALL_ACTIVITIES)
    assert len(ALL_ACTIVITIES) == 19
    assert len(set(ALL_ACTIVITIES)) == 19
    # Variants agree on the shared prefix and the closing activity.
    assert LONG_VARIANT[:8] == SHORT_VARIANT[:8]
    assert LONG_VARIANT[-1] == SHORT_VARIANT[-1] == "DP"


def test_org_split_is_11_3_5():
    org_map = default_org_map()
    by_org = {}
    for act, org in org_map.items():
        by_org.setdefault(org, set()).add(act)
    assert len(by_org[ORG_HOSPITAL]) == 11
    assert len(by_org[ORG_PHARMA]) == 3
    assert len(by_org[ORG_CLINIC]) == 5
    assert set(org_map) == set(ALL_ACTIVITIES)


def test_org_map_for_other_org_counts():
    assert org_map_for(3) == default_org_map()
    m1 = org_map_for(1)
    assert set(m1.values()) == {"org1"}
    m5 = org_map_for(5)
    assert set(m5.values()) == {"org%d" % i for i in range(1, 6)}
    assert set(org_map_for(19).values()) == {"org%d" % i for i in range(1, 20)}
    with pytest.raises(ValueError):
        org_map_for(0)
    with pytest.raises(ValueError, match="^need at most 19 orgs, one per activity, got 20$"):
        org_map_for(20)


def test_case_traces_are_exactly_one_variant():
    log = generate_scenario_log(200, seed=1)
    for case in group_by_iid(log).values():
        assert case.activities() in (LONG_VARIANT, SHORT_VARIANT)


def test_case_count_and_ids():
    log = generate_scenario_log(37, seed=2)
    assert len(iid_set(log)) == 37
    assert sorted(iid_set(log))[0] == "case00000"


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_mean_length_near_fourteen(seed):
    log = generate_scenario_log(1000, seed=seed)
    lengths = [len(c) for c in group_by_iid(log).values()]
    assert min(lengths) >= 9
    assert max(lengths) <= 18
    assert abs(statistics.mean(lengths) - 14) <= 1


def test_determinism_per_seed():
    assert generate_scenario_log(50, seed=7) == generate_scenario_log(50, seed=7)
    assert generate_scenario_log(50, seed=7) != generate_scenario_log(50, seed=8)


def test_events_carry_org_labels():
    log = generate_scenario_log(20, seed=3)
    org_map = default_org_map()
    for ev in log:
        assert ev.provisioner_id == org_map[ev.activity]


def test_custom_org_map_applies():
    log = generate_scenario_log(5, seed=3, org_map=org_map_for(2))
    assert {ev.provisioner_id for ev in log} == {"org1", "org2"}


def test_loop_iterations_extend_cases():
    assert max_case_events(1) == 18
    assert max_case_events(3) == 18 + 16 * 2
    log = generate_scenario_log(120, seed=5, loop_iterations=3)
    lengths = [len(c) for c in group_by_iid(log).values()]
    assert max(lengths) <= max_case_events(3)
    # Replays drop the two-activity re-entry prefix.
    all_short = len(SHORT_VARIANT) + (len(SHORT_VARIANT) - 2) * 2
    assert min(lengths) >= all_short
    long_case = next(
        c for c in group_by_iid(log).values() if len(c) == max(lengths)
    )
    acts = long_case.activities()
    assert acts.count("PH") == 1


def test_timestamps_strictly_ordered_within_case():
    log = generate_scenario_log(30, seed=9)
    for case in group_by_iid(log).values():
        stamps = [ev.timestamp for ev in case]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        generate_scenario_log(0, seed=1)
    with pytest.raises(ValueError):
        generate_scenario_log(5, seed=1, loop_iterations=0)


def test_reference_model_separates_variants():
    model = scenario_declare_model()
    assert len(model.constraints) == 12
    labels = [c.label() for c in model.constraints]
    assert "chain_response(AD,TP)" in labels
    assert "absence(XRAY)" in labels


@pytest.mark.parametrize(
    "n_cases,loop,n_orgs,digest",
    [
        (1000, 1, 3, "a5b1a0ca45cf2f7c05ed6774d581c51a957baffa7648ee3cec7a4ceb804822f9"),
        (500, 3, 3, "b003be84aac9db2b7a45180d0621d12ac1980d45e55dd9f90a32059d9726dbfc"),
        (300, 2, 7, "c9c1272a2c06c7a710ba7964c11e851194ca99ddf5229cbdbf292cb841d35ef0"),
    ],
)
def test_generated_logs_are_pinned(n_cases, loop, n_orgs, digest):
    # Golden digest over seeds 1-5: a faster generator must draw the same logs.
    h = hashlib.sha256()
    for seed in range(1, 6):
        log = generate_scenario_log(
            n_cases, seed, loop_iterations=loop, org_map=org_map_for(n_orgs)
        )
        h.update(encode_log(log))
    assert h.hexdigest() == digest
