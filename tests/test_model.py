import random
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubles import brute_union, make_random_log
from enclavemine.model import (
    DuplicateEvent,
    Event,
    EventLog,
    ModelError,
    canonical_key,
    check_events,
    check_unique_ids,
    extract_case,
    group_by_iid,
    iid_set,
    log_from_events,
    merge,
    merge_all,
)

T312_ACTIVITIES = (
    "PH", "COPA", "OD", "DOR", "PDL", "SD", "RD", "AD", "TP",
    "PAFH", "PIA", "PT", "VRT", "TPB", "RPB", "DPH", "PCD", "DP",
)
T711_ACTIVITIES = (
    "PH", "COPA", "OD", "DOR", "PDL", "SD", "RD", "AD", "PRTA",
    "PCD", "DPH", "DP",
)


def _by_id(log, event_id):
    return next(ev for ev in log if ev.event_id == event_id)


def test_extract_case_hospital(hospital_log):
    case = extract_case(hospital_log, "312")
    assert [ev.event_id for ev in case] == [
        "e1", "e2", "e4", "e8", "e10", "e11", "e16", "e17", "e18", "e19",
    ]
    assert case.is_case()


def test_canonical_key_cross_partition(hospital_log, pharma_log):
    e4 = _by_id(hospital_log, "e4")
    e20 = _by_id(pharma_log, "e20")
    assert canonical_key(e4) < canonical_key(e20)
    assert canonical_key(e4) == canonical_key(_by_id(hospital_log, "e4"))


def test_canonical_tiebreak_provisioner_then_id():
    a = Event("x2", "i", "A", 100, "orgB")
    b = Event("x1", "i", "A", 100, "orgA")
    c = Event("x0", "i", "A", 100, "orgB")
    assert sorted([a, b, c], key=canonical_key) == [b, c, a]


def test_merge_hospital_pharma_case(hospital_log, pharma_log):
    merged = merge(extract_case(hospital_log, "312"), extract_case(pharma_log, "312"))
    assert len(merged) == 13
    assert merged.activities()[:7] == ("PH", "COPA", "OD", "DOR", "PDL", "SD", "RD")


def test_merge_full_traces(hospital_log, pharma_log, clinic_log):
    t312 = merge_all(
        [
            extract_case(hospital_log, "312"),
            extract_case(pharma_log, "312"),
            extract_case(clinic_log, "312"),
        ]
    )
    assert t312.activities() == T312_ACTIVITIES
    t711 = merge(extract_case(hospital_log, "711"), extract_case(pharma_log, "711"))
    assert t711.activities() == T711_ACTIVITIES


def test_merge_rejects_shared_event_ids(hospital_log):
    case = extract_case(hospital_log, "312")
    with pytest.raises(DuplicateEvent) as exc:
        merge(hospital_log, case)
    assert exc.value.event_ids == tuple(sorted(ev.event_id for ev in case))
    # One id shared by two different events (different timestamps).
    early = EventLog((Event("e1", "i", "A", 10, "p"), Event("e2", "i", "B", 20, "p")))
    late = EventLog((Event("e1", "i", "A", 30, "q"),))
    with pytest.raises(DuplicateEvent) as exc:
        merge(early, late)
    assert exc.value.event_ids == ("e1",)


def test_merge_identity_and_commutativity(hospital_log, pharma_log):
    assert merge(hospital_log, EventLog()) == hospital_log
    assert merge(EventLog(), hospital_log) == hospital_log
    assert merge(hospital_log, pharma_log) == merge(pharma_log, hospital_log)


def test_merge_associativity(hospital_log, pharma_log, clinic_log):
    left = merge(merge(hospital_log, pharma_log), clinic_log)
    right = merge(hospital_log, merge(pharma_log, clinic_log))
    assert left == right
    assert left == brute_union(hospital_log, pharma_log, clinic_log)


def test_iid_set_and_grouping(hospital_log, clinic_log):
    assert iid_set(hospital_log) == {"312", "711"}
    assert iid_set(clinic_log) == {"312"}
    groups = group_by_iid(hospital_log)
    assert set(groups) == {"312", "711"}
    assert merge(groups["312"], groups["711"]) == hospital_log


def test_eventlog_rejects_out_of_order():
    a = Event("a", "i", "A", 10, "p")
    b = Event("b", "i", "B", 5, "p")
    with pytest.raises(ModelError):
        EventLog((a, b))
    # The message names the first offending pair, not a later one.
    c = Event("c", "i", "C", 20, "p")
    d = Event("d", "i", "D", 15, "p")
    with pytest.raises(ModelError) as exc:
        EventLog((a, c, d, b))
    assert str(exc.value) == "events out of canonical order: d after c"


def _key_list_check(events):
    """The order and id check over the list of every whole canonical key;
    the oracle for :func:`check_events`, which reads timestamps first."""
    keys = list(map(canonical_key, events))
    if keys != sorted(keys):
        i = next(i for i in range(1, len(keys)) if keys[i - 1] > keys[i])
        raise ModelError(
            "events out of canonical order: %s after %s"
            % (events[i].event_id, events[i - 1].event_id)
        )
    check_unique_ids(events)


@st.composite
def _near_logs(draw):
    """Event lists that are often in canonical order, with timestamps from
    a small range so that equal and falling neighbours are common, and now
    and then one neighbour's timestamp forced equal or made to fall."""
    events = draw(
        st.lists(
            st.builds(
                Event,
                event_id=st.sampled_from(["a", "b", "c", "d", "e", "f"]),
                iid=st.just("i"),
                activity=st.just("A"),
                timestamp=st.integers(0, 5),
                provisioner_id=st.sampled_from(["p", "q"]),
            ),
            max_size=10,
        )
    )
    if draw(st.booleans()):
        events.sort(key=canonical_key)
    if len(events) > 1:
        i = draw(st.integers(1, len(events) - 1))
        how = draw(st.sampled_from(["keep", "equal", "fall"]))
        if how == "equal":
            events[i] = events[i]._replace(timestamp=events[i - 1].timestamp)
        elif how == "fall":
            events[i] = events[i]._replace(timestamp=max(events[i - 1].timestamp - 1, 0))
    return events


def _outcome(check, events):
    try:
        check(events)
    except ModelError as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(_near_logs())
def test_check_events_matches_the_key_list_check(events):
    assert _outcome(check_events, events) == _outcome(_key_list_check, events)
    assert _outcome(check_events, tuple(events)) == _outcome(_key_list_check, events)


def _reference_log(events):
    """One sort under the whole canonical key: the oracle for the model's
    sorts, which sort on the timestamp and re-sort only tied runs."""
    return EventLog(tuple(sorted(events, key=canonical_key)))


def _result(build, *args):
    try:
        return build(*args).events
    except ModelError as exc:
        return type(exc), str(exc)


@st.composite
def _shuffled_events(draw):
    """Events in shuffled order whose timestamps are all distinct, drawn
    from a range some share, or all one; their ids are distinct or drawn
    from a few, so that some repeat."""
    n = draw(st.integers(0, 24))
    ties = draw(st.sampled_from(["none", "some", "all"]))
    if ties == "none":
        stamps = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    elif ties == "some":
        high = draw(st.integers(1, 2 * n + 1))
        stamps = draw(st.lists(st.integers(0, high), min_size=n, max_size=n))
    else:
        stamps = [draw(st.integers(0, 10**6))] * n
    if draw(st.booleans()):
        ids = ["e%d" % i for i in range(n)]
    else:
        ids = draw(st.lists(st.sampled_from("abcdefgh"), min_size=n, max_size=n))
    provisioners = draw(st.lists(st.sampled_from(["p", "q", "r"]), min_size=n, max_size=n))
    events = [Event(*fields) for fields in zip(ids, ["i"] * n, ["A"] * n, stamps, provisioners)]
    return draw(st.permutations(events))


@settings(max_examples=300, deadline=None)
@given(_shuffled_events(), st.data())
def test_the_model_sorts_match_one_sort_under_the_whole_key(events, data):
    assert _result(log_from_events, events) == _result(_reference_log, events)
    # Three logs of the same events, each keeping the first of an id it gets
    # twice, so that an id repeats across logs but not within one.
    owners = data.draw(st.lists(st.integers(0, 2), min_size=len(events), max_size=len(events)))
    kept = [{}, {}, {}]
    for ev, owner in zip(events, owners):
        kept[owner].setdefault(ev.event_id, ev)
    a, b, c = (_reference_log(part.values()) for part in kept)
    assert _result(merge, a, b) == _result(_reference_log, a.events + b.events)
    everything = chain(c.events, a.events, b.events)
    assert _result(merge_all, [c, a, b]) == _result(_reference_log, everything)


def test_a_sort_builds_its_log_again_only_for_a_tied_run_out_of_order():
    # perfbench counts log builds (model.eventlog_builds); a duplicate id
    # found by the first build is raised at once, not re-sorted first.
    early = Event("x", "i", "A", 1, "p")
    p_late = Event("y", "i", "A", 2, "p")
    q_late = Event("z", "i", "A", 2, "q")
    reused = p_late._replace(event_id="x")
    real = EventLog.__post_init__
    for events, builds in [
        ([q_late, early], 1),
        ([p_late, q_late, early], 1),
        ([q_late, p_late, early], 2),
        ([reused, early], 1),
    ]:
        with mock.patch.object(EventLog, "__post_init__", autospec=True, side_effect=real) as built:
            got = _result(log_from_events, events)
        assert built.call_count == builds
        assert got == _result(_reference_log, events)
    assert got[0] is DuplicateEvent


def test_eventlog_rejects_duplicate_ids():
    a = Event("a", "i", "A", 1, "p")
    with pytest.raises(DuplicateEvent):
        log_from_events([a, Event("a", "i", "B", 2, "p")])
    # Each duplicated id is listed once, also one carried three times.
    events = [
        Event(event_id, "i", "A", ts, "p")
        for ts, event_id in enumerate(["x", "y", "x", "z", "x", "y"])
    ]
    with pytest.raises(DuplicateEvent) as exc:
        EventLog(tuple(events))
    assert exc.value.event_ids == ("x", "y")
    assert str(exc.value) == "duplicate event ids: x, y"


def test_empty_log_behavior():
    assert len(EventLog()) == 0
    assert not EventLog()
    assert merge(EventLog(), EventLog()) == EventLog()
    assert iid_set(EventLog()) == frozenset()


def _split_round_robin(log, k, salt):
    rng = random.Random(salt)
    buckets = [[] for _ in range(k)]
    for ev in log:
        buckets[rng.randrange(k)].append(ev)
    return [log_from_events(b) for b in buckets]


@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_merge_matches_brute_union(seed, n_cases):
    rng = random.Random(seed)
    log = make_random_log(rng, n_cases, ["p1", "p2", "p3"])
    parts = _split_round_robin(log, 3, seed)
    assert merge(merge(parts[0], parts[1]), parts[2]) == brute_union(*parts)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_merge_algebra_random(seed):
    rng = random.Random(seed)
    log = make_random_log(rng, rng.randint(1, 10), ["p1", "p2"])
    a, b, c = _split_round_robin(log, 3, seed + 1)
    assert merge(a, b) == merge(b, a)
    assert merge(merge(a, b), c) == merge(a, merge(b, c))
    assert merge(a, EventLog()) == a


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_cases_partition_the_log(seed):
    rng = random.Random(seed)
    log = make_random_log(rng, rng.randint(1, 10), ["p1", "p2"])
    cases = [extract_case(log, iid) for iid in sorted(iid_set(log))]
    assert merge_all(cases) == log
    assert sum(len(c) for c in cases) == len(log)
