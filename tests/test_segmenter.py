"""Segmentation planning tests.

The fixture numbers used here were frozen from hand-run encodings: sizes are
checked against ``size_of`` at runtime so the intent (which case lands where)
stays readable without baking in byte counts that would drift if the fixture
data changed.
"""

import random
import unittest
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavemine.model import extract_case, group_by_iid, iid_set, log_from_events, merge_all
from enclavemine.segmenter import (
    InvalidSegSize,
    SegmenterError,
    segment_event_log,
    size_of,
)
from enclavemine.wire import EMPTY_LOG_SIZE, encode_log

from doubles import make_random_log


def test_invalid_seg_size():
    log = make_random_log(random.Random(0), 1, ["p"])
    for bad in (0, -1, -100):
        with pytest.raises(InvalidSegSize):
            segment_event_log(log, iid_set(log), bad)


def test_unknown_iid_rejected():
    log = make_random_log(random.Random(0), 2, ["p"])
    with pytest.raises(SegmenterError, match="nosuch"):
        segment_event_log(log, ["c0000", "nosuch"], 10_000)


def test_whole_partition_fits_one_segment(hospital_log):
    # The budget check sums standalone case encodings, each carrying its own
    # header, so one extra header per additional case must fit the budget.
    n = len(iid_set(hospital_log))
    budget = size_of(hospital_log) + EMPTY_LOG_SIZE * (n - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no case alone passes the budget
        plan = segment_event_log(hospital_log, iid_set(hospital_log), budget)
    assert len(plan.segments) == 1
    assert plan.segments[0] == hospital_log


def test_budget_of_exact_merged_size_splits(hospital_log):
    plan = segment_event_log(
        hospital_log, iid_set(hospital_log), size_of(hospital_log)
    )
    assert len(plan.segments) == 2


def test_pharma_budget_of_one_case_gives_two_segments(pharma_log):
    # Budget exactly the bigger case: each case ships alone.
    c312 = extract_case(pharma_log, "312")
    c711 = extract_case(pharma_log, "711")
    budget = max(size_of(c312), size_of(c711))
    plan = segment_event_log(pharma_log, ["312", "711"], budget)
    assert len(plan.segments) == 2
    assert plan.segments[0] == c312
    assert plan.segments[1] == c711
    assert [ev.event_id for ev in plan.segments[0]] == ["e20", "e22", "e24"]
    assert [ev.event_id for ev in plan.segments[1]] == ["e21", "e23", "e25"]


def test_subset_of_iids_only(hospital_log):
    plan = segment_event_log(hospital_log, ["711"], size_of(hospital_log))
    assert len(plan.segments) == 1
    assert iid_set(plan.segments[0]) == {"711"}
    assert plan.segments[0] == extract_case(hospital_log, "711")


def test_oversized_case_warns_and_ships(hospital_log):
    tiny = EMPTY_LOG_SIZE + 1
    with pytest.warns(UserWarning, match="exceed seg_size") as caught:
        plan = segment_event_log(hospital_log, ["312", "711"], tiny)
    # One warning for the plan, naming each over-budget case once.
    assert [str(w.message) for w in caught] == [
        "2 case(s) exceed seg_size %d and ship alone over budget: 312, 711" % tiny
    ]
    assert len(plan.segments) == 2


class SegmentPlanInvariants(unittest.TestCase):
    """Randomized invariant battery over one fixed generator seed."""

    def setUp(self):
        self.rng = random.Random(2024)

    def check_plan(self, partition, iids, seg_size):
        plan = segment_event_log(partition, iids, seg_size)
        requested = sorted(set(iids))

        seen = []
        for seg in plan.segments:
            self.assertGreater(len(seg), 0, "empty segment emitted")
            cases = group_by_iid(seg)
            seen.extend(cases.keys())
            # Multi-case segments fit the budget; the literal test is the
            # sum of per-case encodings, which upper-bounds the merged size.
            if len(cases) > 1:
                summed = sum(size_of(c) for c in cases.values())
                self.assertLessEqual(
                    summed - EMPTY_LOG_SIZE * (len(cases) - 1), seg_size
                )
                self.assertLessEqual(size_of(seg), seg_size)
        self.assertEqual(sorted(seen), requested, "cases lost or duplicated")

        reunion = merge_all(plan.segments) if plan.segments else None
        expected = merge_all(
            [extract_case(partition, iid) for iid in requested]
        )
        if requested:
            self.assertEqual(reunion, expected)
        return plan

    def test_random_partitions(self):
        for trial in range(40):
            n_cases = self.rng.randint(1, 12)
            partition = make_random_log(
                self.rng, n_cases, ["p1", "p2"], id_prefix="t%d_" % trial
            )
            iids = sorted(iid_set(partition))
            full = size_of(partition)
            for seg_size in {
                EMPTY_LOG_SIZE + 1,
                full // 3 or 1,
                full // 2 or 1,
                full,
                full * 2,
            }:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    self.check_plan(partition, iids, seg_size)

    def test_determinism(self):
        partition = make_random_log(self.rng, 9, ["p1", "p2"])
        iids = iid_set(partition)
        a = segment_event_log(partition, iids, 900)
        b = segment_event_log(partition, sorted(iids, reverse=True), 900)
        self.assertEqual(a, b)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_cases=st.integers(min_value=1, max_value=10),
    budget_factor=st.floats(min_value=0.05, max_value=1.5),
)
def test_every_case_lands_exactly_once(seed, n_cases, budget_factor):
    rng = random.Random(seed)
    partition = make_random_log(rng, n_cases, ["p1", "p2", "p3"])
    seg_size = max(EMPTY_LOG_SIZE + 1, int(size_of(partition) * budget_factor))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plan = segment_event_log(partition, iid_set(partition), seg_size)
    landed = {}
    for idx, seg in enumerate(plan.segments):
        for iid in iid_set(seg):
            assert iid not in landed, "case split across segments"
            landed[iid] = idx
    assert set(landed) == iid_set(partition)
    assert sum(len(s) for s in plan.segments) == len(partition)


def _greedy(partition, iids, seg_size):
    """The planning rule, restated over encoded case sizes: in iid order, a
    case joins the open segment when the open cases' summed standalone
    encodings, less one header per case after the first, plus its own
    encoding stay within the budget; otherwise it opens a new segment."""
    groups = []
    for iid in sorted(set(iids)):
        size = len(encode_log(extract_case(partition, iid)))
        if groups and groups[-1][1] + size <= seg_size:
            groups[-1][0].append(iid)
            groups[-1][1] += size - EMPTY_LOG_SIZE
        else:
            groups.append([[iid], size])
    return [group for group, _ in groups]


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_cases=st.integers(min_value=1, max_value=10),
    budget_factor=st.floats(min_value=0.05, max_value=1.5),
    share=st.floats(min_value=0.1, max_value=1.0),
    exact=st.integers(min_value=0, max_value=10),
)
def test_segments_follow_the_greedy_rule_and_hold_their_cases(
    seed, n_cases, budget_factor, share, exact
):
    # Fixes each segment's bytes: the canonical log of exactly the cases the
    # greedy rule assigns it, with unrequested cases left out. A nonzero
    # ``exact`` sets the budget to the merged size of the first requested
    # cases, where the rule's boundary lies.
    rng = random.Random(seed)
    partition = make_random_log(rng, n_cases, ["p1", "p2"])
    all_iids = sorted(iid_set(partition))
    iids = sorted(rng.sample(all_iids, max(1, round(share * len(all_iids)))))
    if exact:
        first = iids[: min(exact, len(iids))]
        seg_size = size_of(merge_all(extract_case(partition, iid) for iid in first))
        seg_size += EMPTY_LOG_SIZE * (len(first) - 1)
    else:
        seg_size = max(EMPTY_LOG_SIZE + 1, int(size_of(partition) * budget_factor))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plan = segment_event_log(partition, iids, seg_size)
    groups = _greedy(partition, iids, seg_size)
    assert [sorted(iid_set(seg)) for seg in plan.segments] == groups
    for seg, group in zip(plan.segments, groups):
        expected = log_from_events(ev for iid in group for ev in extract_case(partition, iid))
        assert seg == expected
        assert encode_log(seg) == encode_log(expected)
