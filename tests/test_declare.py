"""Constraint semantics and fitness aggregation.

The truth-table block below walks every template through a satisfying and a
violating sequence, chosen so that off-by-one slips (fencepost on "immediately
followed", activation at the last position) would flip the verdict. Two
references back it up: ``_holds``, a generator-scan oracle for ``case_mask``,
and ``_reference_report``, the report built case by case and rendered by one
``json.dumps``.
"""

import json
import re
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    for template, a, b in [
        ("existence", "a", "b"),
        ("response", "a", None),
        ("eventually", "a", "b"),
        ("existence", None, None),
        ("existence", 1, None),
        ("response", "a", 2),
        ("response", b"a", "b"),
    ]:
        with pytest.raises(ValueError):
            Constraint(template, a, b)


def test_empty_model_rejected():
    with pytest.raises(ValueError):
        DeclareModel(())


def test_repeated_constraint_rejected():
    # Otherwise "constraints" lists the label twice but "violations" keys it once.
    with pytest.raises(ValueError, match=re.escape("existence(a)")):
        DeclareModel((Constraint("existence", "a"), Constraint("existence", "a")))


def test_constraints_whose_labels_coincide_rejected():
    # Labels do not escape their activities, so these two would share one
    # violation count.
    with pytest.raises(ValueError, match=re.escape("response(a,b,c)")):
        DeclareModel((Constraint("response", "a", "b,c"), Constraint("response", "a,b", "c")))


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


# The per-constraint checks case_mask replaced, kept as its oracle.
def _response(a: str, b: str, seq: Sequence[str]) -> bool:
    last_a = max((i for i, x in enumerate(seq) if x == a), default=None)
    return last_a is None or b in seq[last_a + 1 :]


def _precedence(a: str, b: str, seq: Sequence[str]) -> bool:
    first_b = next((i for i, x in enumerate(seq) if x == b), None)
    return first_b is None or a in seq[:first_b]


def _holds(c: Constraint, seq: Sequence[str]) -> bool:
    a, b = c.a, c.b
    t = c.template
    if t == "existence":
        return a in seq
    if t == "absence":
        return a not in seq
    if t == "exactly_one":
        return sum(1 for x in seq if x == a) == 1
    if t == "init":
        return bool(seq) and seq[0] == a
    if t == "end":
        return bool(seq) and seq[-1] == a
    if t == "responded_existence":
        return (a not in seq) or (b in seq)
    if t == "response":
        return _response(a, b, seq)
    if t == "precedence":
        return _precedence(a, b, seq)
    if t == "succession":
        return _response(a, b, seq) and _precedence(a, b, seq)
    if t == "chain_response":
        return all(
            i + 1 < len(seq) and seq[i + 1] == b
            for i, x in enumerate(seq)
            if x == a
        )
    if t == "chain_precedence":
        return all(i > 0 and seq[i - 1] == a for i, x in enumerate(seq) if x == b)
    if t == "not_succession":
        first_a = next((i for i, x in enumerate(seq) if x == a), None)
        if first_a is None:
            return True
        return b not in seq[first_a + 1 :]
    raise AssertionError("unhandled template %s" % t)


_ABC = st.sampled_from("abc")
_UNARY_TEMPLATES = {"existence", "absence", "exactly_one", "init", "end"}


@pytest.mark.parametrize("template", TEMPLATES)
@settings(max_examples=150, deadline=None)
@given(a=_ABC, b=_ABC, seq=st.lists(_ABC, min_size=1, max_size=8))
def test_case_mask_matches_the_oracle(template, a, b, seq):
    # Three activities and up to eight events: a == b, repeats and an
    # activation at the last position all occur.
    c = Constraint(template, a, None if template in _UNARY_TEMPLATES else b)
    assert case_mask(DeclareModel((c,)), _case(seq)) == int(_holds(c, seq))


def _reference_report(model: DeclareModel, masks: dict) -> bytes:
    """The report as one document rendered by ``json.dumps``, case by case."""
    labels = [c.label() for c in model.constraints]
    n = len(labels)
    violations = dict.fromkeys(labels, 0)
    per_trace = {}
    held_total = 0
    for iid, mask in sorted(masks.items()):
        violated = [label for i, label in enumerate(labels) if not mask >> i & 1]
        for label in violated:
            violations[label] += 1
        held = n - len(violated)
        held_total += held
        fitness = Fraction(held, n)
        per_trace[iid] = {
            "fitness": float(fitness),
            "fitness_exact": "%d/%d" % (fitness.numerator, fitness.denominator),
            "violated": violated,
        }
    aggregate = Fraction(held_total, n * len(per_trace))
    doc = {
        "aggregate": float(aggregate),
        "aggregate_exact": "%d/%d" % (aggregate.numerator, aggregate.denominator),
        "constraints": labels,
        "n_cases": len(per_trace),
        "per_trace": per_trace,
        "violations": violations,
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


# Characters JSON escapes or ASCII cannot hold.
_AWKWARD = st.text(st.sampled_from('ab,"\\\x00\n\x1f\x7fé日😀'), min_size=1, max_size=4)


@st.composite
def _constraints(draw):
    template = draw(st.sampled_from(TEMPLATES))
    b = None if template in _UNARY_TEMPLATES else draw(_AWKWARD)
    return Constraint(template, draw(_AWKWARD), b)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_report_bytes_match_one_json_dumps(data):
    model = DeclareModel(
        tuple(
            data.draw(
                st.lists(_constraints(), min_size=1, max_size=16, unique_by=Constraint.label)
            )
        )
    )
    every = (1 << len(model.constraints)) - 1
    # Few distinct masks, so entries repeat; 0 is the all-violated mask.
    mask = st.one_of(st.just(0), st.just(every), st.integers(0, every))
    masks = data.draw(st.dictionaries(_AWKWARD, mask, min_size=1, max_size=24))
    masks[data.draw(_AWKWARD)] = 0
    state = ConformanceState(model)
    state._masks = masks  # the report reads only the masks
    assert state.report_json() == _reference_report(model, masks)
