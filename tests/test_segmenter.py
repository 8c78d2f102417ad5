"""Segmentation planning tests.

The fixture numbers used here were frozen from hand-run encodings: sizes are
checked against ``size_of`` at runtime so the intent (which case lands where)
stays readable without baking in byte counts that would drift if the fixture
data changed.
"""

import hashlib
import random
import unittest
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavemine import protocol
from enclavemine.experiment import build_manifest, build_session
from enclavemine.logio import split_log
from enclavemine.model import extract_case, group_by_iid, iid_set, log_from_events, merge_all
from enclavemine.scenario import generate_scenario_log, org_map_for
from enclavemine.segmenter import (
    InvalidSegSize,
    gather,
    segment_event_log,
    size_of,
)
from enclavemine.wire import EMPTY_LOG_SIZE, encode_log

from doubles import CollectorSink, make_random_log


def test_invalid_seg_size():
    log = make_random_log(random.Random(0), 1, ["p"])
    for bad in (0, -1, -100):
        with pytest.raises(InvalidSegSize):
            segment_event_log(log, bad)


def test_whole_partition_fits_one_segment(hospital_log):
    # The budget check sums standalone case encodings, each carrying its own
    # header, so one extra header per additional case must fit the budget.
    n = len(iid_set(hospital_log))
    budget = size_of(hospital_log) + EMPTY_LOG_SIZE * (n - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no case alone passes the budget
        plan = segment_event_log(hospital_log, budget)
        assert len(plan.segments) == 1
    assert plan.segments[0] == hospital_log


def test_budget_of_exact_merged_size_splits(hospital_log):
    plan = segment_event_log(hospital_log, size_of(hospital_log))
    assert len(plan.segments) == 2


def test_pharma_budget_of_one_case_gives_two_segments(pharma_log):
    # Budget exactly the bigger case: each case ships alone.
    c312 = extract_case(pharma_log, "312")
    c711 = extract_case(pharma_log, "711")
    budget = max(size_of(c312), size_of(c711))
    plan = segment_event_log(pharma_log, budget)
    assert len(plan.segments) == 2
    assert plan.segments[0] == c312
    assert plan.segments[1] == c711
    assert [ev.event_id for ev in plan.segments[0]] == ["e20", "e22", "e24"]
    assert [ev.event_id for ev in plan.segments[1]] == ["e21", "e23", "e25"]


def test_oversized_case_warns_and_ships(hospital_log):
    tiny = EMPTY_LOG_SIZE + 1
    plan = segment_event_log(hospital_log, tiny)
    # The plan cuts its segments when they are read, and warns then.
    with pytest.warns(UserWarning, match="exceed seg_size") as caught:
        assert len(plan.segments) == 2
    # One warning for the plan, naming each over-budget case once.
    assert [str(w.message) for w in caught] == [
        "2 case(s) exceed seg_size %d and ship alone over budget: 312, 711" % tiny
    ]


class SegmentPlanInvariants(unittest.TestCase):
    """Randomized invariant battery over one fixed generator seed."""

    def setUp(self):
        self.rng = random.Random(2024)

    def check_plan(self, partition, seg_size):
        plan = segment_event_log(partition, seg_size)

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
        self.assertEqual(sorted(seen), sorted(iid_set(partition)), "cases lost or duplicated")
        self.assertEqual(merge_all(plan.segments), partition)

    def test_random_partitions(self):
        for trial in range(40):
            n_cases = self.rng.randint(1, 12)
            partition = make_random_log(
                self.rng, n_cases, ["p1", "p2"], id_prefix="t%d_" % trial
            )
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
                    self.check_plan(partition, seg_size)

    def test_a_cut_taken_segment_by_segment_is_the_whole_plan(self):
        # Segments cut one at a time, with reads of the whole plan at random
        # points between them, are the whole plan's segments, only the final
        # one is marked last, and the cut warns once, naming each over-budget
        # case once.
        for trial in range(40):
            partition = make_random_log(
                self.rng, self.rng.randint(1, 12), ["p1", "p2"], id_prefix="s%d_" % trial
            )
            seg_size = self.rng.randint(EMPTY_LOG_SIZE + 1, size_of(partition) + 50)
            oversized = [
                iid
                for iid in sorted(iid_set(partition))
                if size_of(extract_case(partition, iid)) > seg_size
            ]
            warned = (
                ["%d case(s) exceed seg_size %d and ship alone over budget: %s"
                 % (len(oversized), seg_size, ", ".join(oversized))]
                if oversized
                else []
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                whole = segment_event_log(partition, seg_size).positions
                self.assertEqual([str(w.message) for w in caught], warned)
                caught.clear()
                plan = segment_event_log(partition, seg_size)
                cut, last = [], False
                while not last:
                    if self.rng.random() < 0.3:
                        self.assertEqual(plan.positions, whole)
                    positions, last = plan.cut(len(cut))
                    cut.append(positions)
                    self.assertEqual(last, len(cut) == len(whole))
                self.assertEqual(plan.positions, whole)
                self.assertEqual([str(w.message) for w in caught], warned)
            self.assertEqual(tuple(cut), whole)
            with self.assertRaises(IndexError):
                plan.cut(len(cut))

    def test_determinism(self):
        # The same events, handed over in reverse, make the same plan.
        partition = make_random_log(self.rng, 9, ["p1", "p2"])
        a = segment_event_log(partition, 900)
        b = segment_event_log(log_from_events(reversed(partition.events)), 900)
        self.assertEqual(a.positions, b.positions)


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
        segments = segment_event_log(partition, seg_size).segments
    landed = {}
    for idx, seg in enumerate(segments):
        for iid in iid_set(seg):
            assert iid not in landed, "case split across segments"
            landed[iid] = idx
    assert set(landed) == iid_set(partition)
    assert sum(len(s) for s in segments) == len(partition)


def _greedy(partition, seg_size):
    """The planning rule, restated over encoded case sizes: in iid order, a
    case joins the open segment when the open cases' summed standalone
    encodings, less one header per case after the first, plus its own
    encoding stay within the budget; otherwise it opens a new segment."""
    groups = []
    for iid in sorted(iid_set(partition)):
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
    multibyte=st.booleans(),
)
def test_segments_follow_the_greedy_rule_and_hold_their_cases(
    seed, n_cases, budget_factor, share, exact, multibyte
):
    # Fixes each segment's bytes: the canonical log of exactly the cases the
    # greedy rule assigns it. The partition is a sample of a random log's
    # cases, a ``share`` of them. A nonzero ``exact`` sets the budget to the
    # merged size of the partition's first cases, where the rule's boundary
    # lies. Multibyte text makes a field's character count differ from its
    # encoded length.
    rng = random.Random(seed)
    log = make_random_log(rng, n_cases, ["p1", "p2"], multibyte=multibyte)
    all_iids = sorted(iid_set(log))
    iids = sorted(rng.sample(all_iids, max(1, round(share * len(all_iids)))))
    partition = log_from_events(ev for iid in iids for ev in extract_case(log, iid))
    if exact:
        first = iids[: min(exact, len(iids))]
        seg_size = size_of(merge_all(extract_case(partition, iid) for iid in first))
        seg_size += EMPTY_LOG_SIZE * (len(first) - 1)
    else:
        seg_size = max(EMPTY_LOG_SIZE + 1, int(size_of(partition) * budget_factor))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plan = segment_event_log(partition, seg_size)
        segments = plan.segments
    groups = _greedy(partition, seg_size)
    assert [sorted(iid_set(seg)) for seg in segments] == groups
    for index, (seg, group) in enumerate(zip(segments, groups)):
        expected = log_from_events(ev for iid in group for ev in extract_case(partition, iid))
        assert seg == expected
        # What the provisioner sends: the events gathered out of the partition.
        assert encode_log(gather(partition, plan.positions[index])) == encode_log(expected)


# The benchmark's three workload configs, as (n_cases, loop_iterations,
# seg_size): bulk-hm-inc, chatty-decl-inc and whole-hm-batch.
WORKLOAD_CONFIGS = {
    "bulk": (500, 1, 100_000),
    "chatty": (500, 1, 2_000),
    "whole": (200, 3, 5_000_000),
}
# sha256 of each provisioner's segment plaintexts, concatenated in send
# order, for input seed 1 split over 3 orgs. Each segment's header carries
# its event count, so the concatenation also pins where the cuts fall.
GOLDEN_SEGMENT_DIGESTS = {
    "bulk": {
        "clinic": "22d3b84a66cab4809492629ce6e3477556a35a3a56ec23dd3445cca2334aecf7",
        "hospital": "b45f1d1ecf74e7aa9623219e18768e855e987d7693d059eff11ee77f60816f01",
        "pharma": "7844fa50d8013028ebfd9537725f2f4e23f41287e93618d41b343c44a43aaf72",
    },
    "chatty": {
        "clinic": "4e065fc45e5c2c1b5c136bff54dfd900c0d09fba1196e19ec0ce98dc32d64ac2",
        "hospital": "d67ced2139a00f23fa17d7f1c7ceebf46642067fa44d1d6bd5e8c65e2da3da09",
        "pharma": "56e77c29858faa02839fd3fedf9c81379b9f3c02a61d337de3ac0a137331f661",
    },
    "whole": {
        "clinic": "bf5241fbf4e622a0e910edeaa0f690d58521fd79865eb78aac88684d8b8495ea",
        "hospital": "d4850a3a128d4bea4c351f3d131ed2652c4a71be9b630f3d8d29ed8cd567032a",
        "pharma": "82c0e17ba1624ba47cd3a85356235ecb5ec8bcf2c00e6ace40fbaed14edaba0c",
    },
}


def _sent_plaintexts(n_cases, loop_iterations, seg_size):
    """Each provisioner's segment plaintexts, in the order its stream seals them."""
    org_map = org_map_for(3)
    log = generate_scenario_log(n_cases, 1, loop_iterations=loop_iterations, org_map=org_map)
    net, miner, _ = build_session(
        split_log(log, org_map),
        seed=0,
        seg_size=seg_size,
        incremental=True,
        sink=CollectorSink(),
        manifest=build_manifest("heuristics"),
    )
    sent = {}

    def recording_seal(plain, *args):
        sent.setdefault(args[4], []).append(plain)  # args[4] is the sender's id
        return seal(plain, *args)

    seal = protocol.seal_segment
    with mock.patch.object(protocol, "seal_segment", recording_seal):
        net.bootstrap()
        net.run()
    assert miner.phase == "done"
    return sent


@pytest.mark.parametrize("workload", sorted(WORKLOAD_CONFIGS))
def test_segment_bytes_of_each_workload_keep_their_digests(workload):
    sent = _sent_plaintexts(*WORKLOAD_CONFIGS[workload])
    digests = {org: hashlib.sha256(b"".join(plains)).hexdigest() for org, plains in sent.items()}
    assert digests == GOLDEN_SEGMENT_DIGESTS[workload]
