"""Constraint semantics and fitness aggregation.

The truth-table block below walks every template through a satisfying and a
violating sequence, chosen so that off-by-one slips (fencepost on "immediately
followed", activation at the last position) would flip the verdict.
"""

import json

import pytest

from enclavemine.mining.declare import (
    TEMPLATES,
    ConformanceState,
    Constraint,
    DeclareModel,
    case_mask,
)
from enclavemine.mining.dfg import EmptyCase
from enclavemine.model import Event, EventLog, extract_case, group_by_iid, merge_all
from enclavemine.scenario import generate_scenario_log, scenario_declare_model


def _case(activities, iid="c1"):
    return EventLog(
        tuple(
            Event(
                event_id="%s_%02d" % (iid, i),
                iid=iid,
                activity=act,
                timestamp=i,
                provisioner_id="p",
            )
            for i, act in enumerate(activities)
        )
    )


def _holds_on(template, a, b, activities):
    c = Constraint(template, a, b)
    model = DeclareModel((c,))
    return bool(case_mask(model, _case(list(activities))) & 1)


TRUTH_TABLE = [
    ("existence", "a", None, "xay", True),
    ("existence", "a", None, "xyz", False),
    ("absence", "a", None, "xyz", True),
    ("absence", "a", None, "xaz", False),
    ("exactly_one", "a", None, "xay", True),
    ("exactly_one", "a", None, "axa", False),
    ("exactly_one", "a", None, "xyz", False),
    ("init", "a", None, "axy", True),
    ("init", "a", None, "xay", False),
    ("end", "a", None, "xya", True),
    ("end", "a", None, "xay", False),
    ("responded_existence", "a", "b", "xbay", True),
    ("responded_existence", "a", "b", "xy", True),
    ("responded_existence", "a", "b", "xay", False),
    ("response", "a", "b", "axbayb", True),
    ("response", "a", "b", "bxa", False),
    ("response", "a", "b", "xyz", True),
    ("precedence", "a", "b", "xab", True),
    ("precedence", "a", "b", "bxa", False),
    ("precedence", "a", "b", "xyz", True),
    ("succession", "a", "b", "ab", True),
    ("succession", "a", "b", "ba", False),
    ("chain_response", "a", "b", "abxab", True),
    ("chain_response", "a", "b", "abxa", False),
    ("chain_response", "a", "b", "axb", False),
    ("chain_precedence", "a", "b", "abxab", True),
    ("chain_precedence", "a", "b", "bx", False),
    ("chain_precedence", "a", "b", "axb", False),
    ("not_succession", "a", "b", "bbax", True),
    ("not_succession", "a", "b", "axxb", False),
]


@pytest.mark.parametrize("template,a,b,seq,expected", TRUTH_TABLE)
def test_template_truth_table(template, a, b, seq, expected):
    assert _holds_on(template, a, b, seq) is expected


def test_every_template_covered_by_table():
    assert {row[0] for row in TRUTH_TABLE} == set(TEMPLATES)


def test_constraint_arity_enforced():
    with pytest.raises(ValueError):
        Constraint("existence", "a", "b")
    with pytest.raises(ValueError):
        Constraint("response", "a")
    with pytest.raises(ValueError):
        Constraint("eventually", "a", "b")


def test_empty_model_rejected():
    with pytest.raises(ValueError):
        DeclareModel(())


def test_case_mask_guards():
    model = DeclareModel((Constraint("existence", "a"),))
    with pytest.raises(EmptyCase):
        case_mask(model, EventLog())
    two = EventLog(
        (
            Event(event_id="x", iid="c1", activity="a", timestamp=0, provisioner_id="p"),
            Event(event_id="y", iid="c2", activity="a", timestamp=1, provisioner_id="p"),
        )
    )
    with pytest.raises(ValueError):
        case_mask(model, two)


def test_fixture_case_fitness(three_partitions):
    full = merge_all(three_partitions.values())
    model = scenario_declare_model()
    labels = [c.label() for c in model.constraints]
    assert case_mask(model, extract_case(full, "312")) == (1 << len(labels)) - 1
    short = case_mask(model, extract_case(full, "711"))
    assert [labels[i] for i in range(len(labels)) if not short >> i & 1] == [
        "chain_response(AD,TP)"
    ]
    per_trace = json.loads(_checked(model, full).report_json())["per_trace"]
    assert per_trace["312"]["fitness_exact"] == "1/1"
    assert per_trace["312"]["violated"] == []
    assert per_trace["711"]["fitness_exact"] == "11/12"
    assert per_trace["711"]["violated"] == ["chain_response(AD,TP)"]


def _checked(model, log):
    """A state fed every case of ``log``, one at a time, in ascending iid order."""
    state = ConformanceState(model)
    cases = group_by_iid(log)
    for iid in sorted(cases):
        state.add_case(cases[iid])
    return state


def test_fixture_aggregate_is_exact(three_partitions):
    model = scenario_declare_model()
    state = _checked(model, merge_all(three_partitions.values()))
    doc = json.loads(state.report_json())
    assert doc["aggregate_exact"] == "23/24"
    assert doc["violations"]["chain_response(AD,TP)"] == 1
    assert doc["violations"]["existence(PH)"] == 0


def test_streaming_matches_batch():
    log = generate_scenario_log(40, seed=9)
    model = scenario_declare_model()
    batch = _checked(model, log)
    stream = ConformanceState(model)
    for case in reversed(list(group_by_iid(log).values())):
        stream.add_case(case)
    assert stream.report_json() == batch.report_json()


def test_report_without_cases():
    state = ConformanceState(scenario_declare_model())
    with pytest.raises(EmptyCase):
        state.report_json()


def test_report_json_shape(three_partitions):
    model = scenario_declare_model()
    state = _checked(model, merge_all(three_partitions.values()))
    blob = state.report_json()
    assert state.report_json() == blob
    doc = json.loads(blob)
    assert doc["aggregate_exact"] == "23/24"
    assert doc["aggregate"] == pytest.approx(23 / 24)
    assert doc["n_cases"] == 2
    assert doc["per_trace"]["711"]["fitness_exact"] == "11/12"
    assert doc["per_trace"]["711"]["violated"] == ["chain_response(AD,TP)"]
    assert doc["per_trace"]["312"]["violated"] == []
    assert sorted(doc["constraints"]) == sorted(c.label() for c in model.constraints)


def test_aggregate_mean_is_exact_not_float():
    # Case fitnesses 1, 1/3 and 2/3 average to exactly 2/3, which binary
    # floats cannot represent; only rational arithmetic passes this.
    model = DeclareModel(
        (
            Constraint("existence", "a"),
            Constraint("existence", "b"),
            Constraint("existence", "c"),
        )
    )
    state = ConformanceState(model)
    state.add_case(_case(["a", "b", "c"], iid="t1"))
    state.add_case(_case(["a", "x"], iid="t2"))
    state.add_case(_case(["a", "b"], iid="t3"))
    doc = json.loads(state.report_json())
    assert [doc["per_trace"][iid]["fitness_exact"] for iid in ("t1", "t2", "t3")] == [
        "1/1",
        "1/3",
        "2/3",
    ]
    assert doc["aggregate_exact"] == "2/3"
