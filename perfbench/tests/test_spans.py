from perfbench.sessions import Expected, Workload, run_session, setup
from perfbench.spans import Recorder, aggregate, instrumented, self_times, tail_percentile, targets

TINY = Workload("tiny", 40, 1, 2_000, "declare", True, 1, "test")


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["b", 15, 25, 1],
        ["a", 50, 90, 0],
        ["c", 60, 70, 3],
        ["d", 72, 75, 3],
    ]
    assert self_times(spans) == [30, 20, 10, 27, 10, 3]
    calls, busy, own = aggregate(spans)
    assert calls == {"root": 1, "a": 2, "b": 1, "c": 1, "d": 1}
    assert busy["a"] == 70 and own["a"] == 47
    assert sum(own.values()) == busy["root"]


def test_busy_time_counts_a_self_nested_name_once():
    spans = [["a", 0, 50, -1], ["x", 5, 45, 0], ["a", 10, 30, 1]]
    calls, busy, own = aggregate(spans)
    assert calls["a"] == 2
    assert busy["a"] == 50
    assert own["a"] == 10 + 20


def test_spans_nest_by_call_stack():
    rec = Recorder()
    with rec.span("outer"):
        rec.wrap("inner", lambda: None)()
    assert [(name, parent) for name, _, _, parent in rec.spans] == [("outer", -1), ("inner", 0)]


def _snapshot():
    owners = {id(owner): owner for owner, _, _, _ in targets(Recorder())}
    return {key: dict(vars(owner)) for key, owner in owners.items()}


def test_wrap_then_restore_leaves_every_attribute_identical():
    before = _snapshot()
    session = setup(TINY, (1, 5))
    expected = Expected(TINY.algorithm)(session)
    rec = Recorder()
    with instrumented(rec):
        wrapped = _snapshot()
        outcome = run_session(session, expected)
    after = _snapshot()
    assert outcome.failure is None
    assert rec.spans
    changed = sum(
        wrapped[k][attr] is not value for k, attrs in before.items() for attr, value in attrs.items()
    )
    assert changed == len(targets(rec))
    assert before.keys() == after.keys()
    for key, attrs in before.items():
        assert attrs.keys() == after[key].keys()
        for attr, value in attrs.items():
            assert after[key][attr] is value, attr


def test_restore_happens_when_the_block_raises():
    before = _snapshot()
    try:
        with instrumented(Recorder()):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    after = _snapshot()
    for key, attrs in before.items():
        for attr, value in attrs.items():
            assert after[key][attr] is value, attr


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(5))) == (60.0, 2.0)
    assert tail_percentile(list(range(18))) == (100.0 * 10 / 18, 9.0)
    pct, value = tail_percentile(list(range(100)))
    assert value == 89.0 and sum(v > value for v in range(100)) == 10 and pct == 90.0
    pct, value = tail_percentile(list(range(2000)))
    assert pct == 99.05 and value == 1980.0
