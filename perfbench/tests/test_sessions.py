import json

from perfbench import run
from perfbench.sessions import (
    SETUP_REPEATS,
    WORKLOADS,
    Expected,
    Workload,
    draws,
    end_to_end,
    measure,
    measure_traced,
    run_session,
    setup,
)

TINY = Workload("tiny", 40, 1, 2_000, "declare", True, 2, "test")
TINY_BATCH = Workload("tiny-batch", 30, 2, 1_000_000, "heuristics", False, 1, "test")


class _AlteringSink:
    def __init__(self, sink):
        self.on_case = sink.on_case
        self.on_log = sink.on_log
        self._sink = sink

    def finalize_bytes(self):
        return self._sink.finalize_bytes() + b" "


def test_gate_passes_a_real_session_and_flags_an_altered_output():
    for workload in (TINY, TINY_BATCH):
        session = setup(workload, (1, 9))
        expected = Expected(workload.algorithm)(session)
        assert run_session(session, expected).failure is None
        altered = setup(workload, (1, 9))
        altered.sink.sink = _AlteringSink(altered.sink.sink)
        outcome = run_session(altered, expected)
        assert outcome.failure == "output differs from standalone mining of the merged log"


def test_raising_session_is_a_counted_failure():
    session = setup(TINY, (1, 9))
    expected = Expected(TINY.algorithm)(session)
    session.network.bootstrap()  # a second bootstrap raises inside the miner
    outcome = run_session(session, expected)
    assert outcome.failure.startswith("raised UnexpectedMessage")


COUNTS = [name for name, unit, _, _ in run.PER_LAYER if unit == "count"] + ["segmenter.fill_ratio"]
REPEATABLE_E2E = ["enclave_peak_bytes", "enclave_mean_bytes", "messages", "wire_bytes"]


def test_draws_vary_inputs_and_orders_and_repeat_under_a_seed():
    first = draws(WORKLOADS["bulk-hm-inc"], 1)
    assert first == draws(WORKLOADS["bulk-hm-inc"], 1)
    assert first != draws(WORKLOADS["bulk-hm-inc"], 2)
    assert len({d[0] for d in first}) == len({d[1] for d in first}) == len(first)


def test_counts_and_byte_figures_repeat_under_a_seed():
    for workload in (TINY, TINY_BATCH):
        first = measure_traced(workload, 3, 0.0).layers
        second = measure_traced(workload, 3, 0.0).layers
        assert len(first) == len(second) == 1
        assert {k: first[0][k] for k in COUNTS} == {k: second[0][k] for k in COUNTS}
        a, b = measure(workload, 3, 0.0), measure(workload, 3, 0.0)
        assert len(a.outcomes) >= workload.draws
        assert a.failed_share == b.failed_share == 0.0
        ea, eb = end_to_end(workload, a), end_to_end(workload, b)
        assert {k: ea[k] for k in REPEATABLE_E2E} == {k: eb[k] for k in REPEATABLE_E2E}


def test_layer_metrics_cover_the_per_layer_table():
    traced = measure_traced(TINY, 2, 0.0)
    assert all(o.failure is None for o in traced.outcomes)
    metrics = traced.layers[0]
    assert list(metrics) == [name for name, _, _, _ in run.PER_LAYER]
    assert metrics["transport.deliveries"] == traced.outcomes[1].messages
    assert metrics["enclave.seals"] == metrics["segmenter.segments"]


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in run.PER_LAYER
    ]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_host_clock_cancels_host_speed_but_not_program_speed():
    run_ = measure(TINY, 4, 0.0)
    base = end_to_end(TINY, run_)
    assert len(run_.references) == SETUP_REPEATS + 1 + 2 * len(run_.outcomes)
    for o in run_.outcomes:
        o.session_s, o.first_case_s, o.reference_s = 2 * o.session_s, 2 * o.first_case_s, 2 * o.reference_s
    run_.setup_samples = [(2 * raw, 2 * ref) for raw, ref in run_.setup_samples]
    slower_host = end_to_end(TINY, run_)
    for name in ("session_s", "first_case_s", "cases_per_s", "setup_s"):
        assert abs(slower_host[name] - base[name]) <= 1e-9 * abs(base[name])
    for o in run_.outcomes:
        o.session_s = 2 * o.session_s
    assert abs(end_to_end(TINY, run_)["session_s"] - 2 * base["session_s"]) <= 1e-9 * base["session_s"]
