"""End-to-end experiment runs: determinism, replay, metrics, convergence."""

import csv
import hashlib
import json
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubles import make_random_log
from enclavemine import __version__, experiment
from enclavemine.enclave import CapacityExceeded, EnclaveAccountant
from enclavemine.experiment import (
    SCALE_METRICS,
    ExperimentConfig,
    SessionFailed,
    build_manifest,
    read_transcript,
    run_experiment,
    scale_run,
    standalone_mining,
    write_metrics_csv,
    write_transcript,
)
from enclavemine.logio import save_csv
from enclavemine.model import group_by_iid
from enclavemine.scenario import generate_scenario_log, org_map_for
from enclavemine.stats import fit_stats

SMALL = ExperimentConfig(n_cases=30, seed=5, seg_size=4000)


def test_config_validation_and_overrides():
    with pytest.raises(ValueError):
        ExperimentConfig(algorithm="alpha")
    with pytest.raises(ValueError, match="n_orgs must be at most 19, got 20"):
        ExperimentConfig(n_orgs=20)
    for name, value in (("n_cases", 0), ("n_orgs", 0), ("loop_iterations", -1)):
        with pytest.raises(ValueError, match="%s must be at least 1, got %d" % (name, value)):
            ExperimentConfig(**{name: value})
        with pytest.raises(ValueError, match=name):
            SMALL.with_overrides(**{name: value})
    cfg = SMALL.with_overrides(seg_size=None, algorithm="declare")
    assert cfg.seg_size == 4000
    assert cfg.algorithm == "declare"
    assert SMALL.algorithm == "heuristics"


def test_config_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_cases": 12, "seed": 9, "seg_size": 777}))
    cfg = ExperimentConfig.from_json_file(path)
    assert cfg.n_cases == 12
    assert cfg.seed == 9
    assert cfg.seg_size == 777
    assert cfg.n_orgs == 3
    path.write_text(json.dumps({"n_cases": 12, "session": "x", "loops": 2}))
    with pytest.raises(ValueError, match=r"unknown config key\(s\): loops, session"):
        ExperimentConfig.from_json_file(path)
    path.write_text(json.dumps([["n_cases", 12]]))
    with pytest.raises(ValueError, match="not list"):
        ExperimentConfig.from_json_file(path)


def test_session_completes_and_output_matches_standalone():
    result = run_experiment(SMALL)
    assert result.miner_phase == "done"
    log = generate_scenario_log(SMALL.n_cases, SMALL.seed)
    assert result.output == standalone_mining(log, "heuristics")


def test_declare_output_matches_standalone():
    cfg = SMALL.with_overrides(algorithm="declare")
    result = run_experiment(cfg)
    log = generate_scenario_log(SMALL.n_cases, SMALL.seed)
    assert result.output == standalone_mining(log, "declare")
    doc = json.loads(result.output)
    assert doc["n_cases"] == SMALL.n_cases


@pytest.mark.parametrize(
    "n_cases,seed,loop,algorithm,digest",
    [
        (1000, 1, 1, "heuristics", "ce2f72597bf58d42fd1eabad980a032d247c8a39b12110cbe09621b8cda83003"),
        (1000, 1, 1, "declare", "e1457e4414a7a56a20a340af7e21a3f68de2959ccd9c9b8414b59e5d71b481e9"),
        (500, 7, 3, "heuristics", "dedca804669655bd0312f26a1cb1d6be8da6452bebe08a1c66c35d4750dadf82"),
        (500, 7, 3, "declare", "c2bf0c1e90010c3e5007a052a6945407e85982618fb5502d693e5945ecc2d166"),
    ],
)
def test_standalone_mining_output_is_pinned(n_cases, seed, loop, algorithm, digest):
    # Golden digests: a rewrite of a miner or its rendering must keep its bytes.
    log = generate_scenario_log(n_cases, seed, loop_iterations=loop)
    assert hashlib.sha256(standalone_mining(log, algorithm)).hexdigest() == digest


def test_batch_and_incremental_outputs_agree():
    inc = run_experiment(SMALL)
    bat = run_experiment(SMALL.with_overrides(incremental=False))
    assert inc.output == bat.output
    assert inc.metrics.yield_count == SMALL.n_cases
    assert bat.metrics.yield_count == 1


@pytest.mark.parametrize(
    "sink_cls,algorithm",
    [(experiment.HeuristicsSink, "heuristics"), (experiment.DeclareSink, "declare")],
)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_cases=st.integers(1, 12), data=st.data())
def test_a_sink_mines_the_same_output_from_its_cases_in_any_order(
    sink_cls, algorithm, seed, n_cases, data
):
    # A session hands a sink its cases in the order they complete
    # (incremental) or by iid (batch); the output must not depend on which.
    log = make_random_log(random.Random(seed), n_cases, ["p1", "p2", "p3"])
    sink = sink_cls()
    for case in data.draw(st.permutations(list(group_by_iid(log).values()))):
        sink.on_case(case)
    assert sink.finalize_bytes() == standalone_mining(log, algorithm)


def test_same_seed_reproduces_metrics_exactly():
    a = run_experiment(SMALL)
    b = run_experiment(SMALL)
    assert a.metrics == b.metrics
    assert a.transcript == b.transcript


def test_different_seed_changes_interleaving():
    a = run_experiment(SMALL)
    b = run_experiment(SMALL.with_overrides(seed=6))
    assert a.transcript != b.transcript


def test_transcript_replay_reproduces_metrics(tmp_path):
    original = run_experiment(SMALL)
    path = tmp_path / "transcript.jsonl"
    write_transcript(original.transcript, path)
    order = read_transcript(path)
    assert len(order) == original.metrics.message_count
    replayed = run_experiment(SMALL, replay_order=order)
    assert replayed.metrics == original.metrics
    assert replayed.output == original.output
    assert [(r.sender, r.receiver) for r in replayed.transcript] == order


def test_replay_of_a_stalled_session_ends_in_the_same_abort():
    cfg = ExperimentConfig(n_cases=20, seg_size=0)
    original = run_experiment(cfg)
    assert (original.miner_phase, original.aborted_reason) == ("aborted", "Stalled")
    assert original.aborted_message == "awaiting cases from clinic, hospital, pharma"
    order = [(r.sender, r.receiver) for r in original.transcript]
    replayed = run_experiment(cfg, replay_order=order)
    assert (replayed.miner_phase, replayed.aborted_reason, replayed.aborted_message) == (
        original.miner_phase,
        original.aborted_reason,
        original.aborted_message,
    )
    assert replayed.metrics == original.metrics


def test_replay_rejects_incomplete_order():
    from enclavemine.transport import TransportError

    original = run_experiment(SMALL)
    order = [(r.sender, r.receiver) for r in original.transcript]
    with pytest.raises(TransportError):
        run_experiment(SMALL, replay_order=order[: len(order) // 2])


def test_metric_samples_one_per_delivery():
    result = run_experiment(SMALL)
    n = result.metrics.message_count
    assert len(result.metrics.samples) == n
    assert [s.step for s in result.metrics.samples] == list(range(n))
    assert result.metrics.samples[-1].current_bytes == 0
    assert result.metrics.peak_bytes == max(s.peak_bytes for s in result.metrics.samples)
    phases = {s.phase for s in result.metrics.samples}
    assert phases <= {"initialization", "attestation", "transmission", "computation"}


def test_metrics_csv_schema(tmp_path):
    result = run_experiment(SMALL)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(result.metrics, path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "phase", "current_bytes", "peak_bytes", "messages"]
    assert len(rows) == 1 + len(result.metrics.samples)
    assert rows[1][0] == "0"


def test_incremental_peak_stays_below_batch():
    inc = run_experiment(SMALL)
    bat = run_experiment(SMALL.with_overrides(incremental=False))
    assert inc.metrics.peak_bytes < bat.metrics.peak_bytes


def test_incremental_peak_does_not_grow_with_the_case_count():
    # Under credit the stored bytes are bounded by the budget and the
    # streams' windows, not by the log: 8x the cases may not lift the peak
    # past 1.5x. (With every segment pushed at once, without credit, the
    # peak is 89 KB at 500 cases and 714 KB at 4000.)
    cfg = ExperimentConfig(n_cases=500, seed=1, seg_size=2000, algorithm="declare")
    small = run_experiment(cfg)
    large = run_experiment(cfg.with_overrides(n_cases=4000))
    assert small.miner_phase == large.miner_phase == "done"
    assert large.metrics.peak_bytes <= 1.5 * small.metrics.peak_bytes


@pytest.mark.parametrize("n_cases", [1000, 4000])
def test_incremental_memory_peaks_early_and_flat_where_batch_peaks_at_the_end(
    monkeypatch, n_cases
):
    # The shape of the memory curve, not only its peak: batch mode holds
    # every case to the end, so its peak comes in the last 1% of the
    # accountant's calls, far above its typical level; incremental mode
    # frees each case as it completes, so its peak comes in the first half
    # and stands less far above the rest (peak over the p90 of the non-zero
    # samples). Seed 1: the incremental peak comes at 0.22 (1k) and 0.15
    # (4k) of the calls, and peak/p90 is 1.19 vs 2.03 (1k) and 1.40 vs 2.27
    # (4k).
    held = []
    account = EnclaveAccountant.account

    def recording(self, delta):
        account(self, delta)
        held.append(self.current_bytes)

    monkeypatch.setattr(EnclaveAccountant, "account", recording)
    cfg = ExperimentConfig(n_cases=n_cases, seed=1, seg_size=100_000)
    shape = {}
    for incremental in (True, False):
        held.clear()
        assert run_experiment(cfg.with_overrides(incremental=incremental)).miner_phase == "done"
        peak = max(held)
        nonzero = sorted(h for h in held if h)
        p90 = nonzero[int(0.9 * (len(nonzero) - 1))]
        shape[incremental] = (held.index(peak) / len(held), peak / p90)
    (inc_at, inc_spike), (bat_at, bat_spike) = shape[True], shape[False]
    assert bat_at >= 0.99
    assert inc_at < 0.5
    assert inc_spike < bat_spike


def test_capacity_cap_is_enforced():
    result = run_experiment(SMALL.with_overrides(incremental=False, capacity=2000))
    assert result.miner_phase == "aborted"
    assert result.aborted_reason == CapacityExceeded.__name__
    assert "capacity 2000" in result.aborted_message
    assert result.output == b""
    assert result.metrics.samples[-1].current_bytes == 0


def test_mean_bytes_counts_what_is_held_inside_one_delivery():
    # One org at 100 KB segments: each segment is opened, mined and freed
    # inside its delivery, so every sample taken between deliveries reads 0.
    result = run_experiment(ExperimentConfig(n_cases=200, seed=1, seg_size=100_000, n_orgs=1))
    assert result.metrics.samples and all(s.current_bytes == 0 for s in result.metrics.samples)
    assert 0 < result.metrics.mean_bytes < result.metrics.peak_bytes == 100_460


def test_file_backed_run_matches_generated(tmp_path):
    log = generate_scenario_log(SMALL.n_cases, SMALL.seed)
    path = tmp_path / "log.csv"
    save_csv(log, path)
    from_file = run_experiment(SMALL.with_overrides(log_path=str(path)))
    generated = run_experiment(SMALL)
    assert from_file.output == generated.output


def test_scale_run_segsize_message_counts_monotone():
    rows, _ = scale_run(SMALL, "segsize", [800, 4000, 40_000])
    assert [r["x"] for r in rows] == [800.0, 4000.0, 40_000.0]
    counts = [r["message_count"] for r in rows]
    assert counts == sorted(counts, reverse=True) or all(
        a >= b for a, b in zip(counts, counts[1:])
    )
    # Outputs do not depend on the segment budget, only traffic shape does.
    assert len({r["peak_bytes"] for r in rows}) >= 1


def test_a_sweep_loads_each_distinct_input_once(tmp_path):
    path = tmp_path / "log.csv"
    save_csv(generate_scenario_log(10, SMALL.seed), path)
    cfg = SMALL.with_overrides(n_cases=10, log_path=str(path))
    with mock.patch.object(experiment, "load_log", wraps=experiment.load_log) as loads:
        rows, _ = scale_run(cfg, "segsize", [800, 4000, 40_000])
    assert (len(rows), loads.call_count) == (3, 1)
    # An org sweep reads the file once and splits that log again for each
    # org count, one session per point; each split equals what loading the
    # file for that count gives.
    with mock.patch.object(experiment, "load_log", wraps=experiment.load_log) as loads:
        with mock.patch.object(
            experiment, "run_experiment", wraps=experiment.run_experiment
        ) as runs:
            scale_run(cfg, "orgs", [2, 3, 4])
    assert (runs.call_count, loads.call_count) == (3, 1)
    for call in runs.call_args_list:
        point_cfg, partitions = call.args
        assert partitions == experiment._load_inputs(point_cfg)
    # Generated inputs differ per point: each is generated once, and the
    # base config's, which is not a point, never.
    with mock.patch.object(
        experiment, "generate_scenario_log", wraps=experiment.generate_scenario_log
    ) as generates:
        scale_run(SMALL.with_overrides(n_cases=1000), "cases", [10, 20, 30])
    assert generates.call_count == 3
    # A segment budget leaves a generated input as it is: generated once.
    with mock.patch.object(
        experiment, "generate_scenario_log", wraps=experiment.generate_scenario_log
    ) as generates:
        scale_run(SMALL.with_overrides(n_cases=10), "segsize", [800, 4000, 40_000])
    assert generates.call_count == 1


def test_a_segsize_sweep_over_a_log_and_org_map_reads_the_file_once(tmp_path):
    # An org map fixes the orgs but not the budget, so the sweep runs, on the
    # file's split by that map at every point.
    save_csv(generate_scenario_log(10, SMALL.seed), tmp_path / "log.csv")
    (tmp_path / "orgs.json").write_text(json.dumps(org_map_for(2)))
    cfg = SMALL.with_overrides(
        n_cases=10, log_path=str(tmp_path / "log.csv"), org_map_path=str(tmp_path / "orgs.json")
    )
    with mock.patch.object(experiment, "load_log", wraps=experiment.load_log) as loads:
        with mock.patch.object(
            experiment, "run_experiment", wraps=experiment.run_experiment
        ) as runs:
            rows, _ = scale_run(cfg, "segsize", [800, 4000, 40_000])
    assert (len(rows), runs.call_count, loads.call_count) == (3, 3, 1)
    for call, seg_size in zip(runs.call_args_list, [800, 4000, 40_000]):
        point_cfg, partitions = call.args
        assert point_cfg.seg_size == seg_size
        assert sorted(partitions) == ["org1", "org2"]
        assert partitions == experiment._load_inputs(point_cfg)


def test_scale_run_cases_dimension():
    rows, fits = scale_run(
        SMALL.with_overrides(n_cases=10),
        "cases",
        [10, 20, 30],
    )
    assert [r["x"] for r in rows] == [10.0, 20.0, 30.0]
    assert all(list(r) == ["x", "peak_bytes", "mean_bytes", "message_count"] for r in rows)
    assert list(fits) == list(SCALE_METRICS)
    for name, fit in fits.items():
        assert fit == fit_stats([r["x"] for r in rows], [r[name] for r in rows])
    assert all(r["peak_bytes"] > 0 for r in rows)


def test_scale_run_events_dimension_uses_case_length():
    rows, _ = scale_run(
        SMALL.with_overrides(n_cases=5),
        "events",
        [1, 2, 3],
    )
    assert [r["x"] for r in rows] == [18.0, 34.0, 50.0]


def test_scale_run_rejects_unknown_dimension():
    named = "^dimension must be one of events, cases, orgs, segsize, got 'threads'$"
    with pytest.raises(ValueError, match=named):
        scale_run(SMALL, "threads", [1, 2, 3])


def test_a_sweep_point_that_does_not_finish_raises():
    # The 800-byte point peaks near 3.7 KB and finishes; the 4000-byte point
    # needs more than the capacity, and its abort ends the sweep.
    tight = SMALL.with_overrides(n_cases=10, capacity=5000)
    with mock.patch.object(experiment, "run_experiment", wraps=experiment.run_experiment) as runs:
        with pytest.raises(SessionFailed, match="^session aborted: CapacityExceeded: .*5000$"):
            scale_run(tight, "segsize", [800, 4000, 40_000])
    assert runs.call_count == 2
    # A miner that aborts names its reason and message.
    tight = SMALL.with_overrides(n_cases=5, incremental=False, capacity=2000)
    with pytest.raises(SessionFailed, match="^session aborted: CapacityExceeded: .*capacity 2000"):
        scale_run(tight, "cases", [5, 10, 15])


@pytest.mark.parametrize("dimension", ["cases", "orgs", "events"])
def test_scale_run_checks_every_value_before_any_session(dimension):
    with mock.patch.object(experiment, "run_experiment") as runs:
        with pytest.raises(ValueError, match="must be at least 1"):
            scale_run(SMALL, dimension, [2, 0])
    assert runs.call_count == 0


@pytest.mark.parametrize(
    "dimension,paths",
    [
        ("cases", dict(log_path="l.csv")),
        ("events", dict(log_path="l.csv")),
        ("orgs", dict(log_path="l.csv", org_map_path="m.json")),
    ],
)
def test_scale_run_rejects_a_sweep_its_input_file_fixes(tmp_path, dimension, paths):
    # Mining one file at every point would fit a flat line to identical
    # sessions; the sweep is refused before any session runs.
    save_csv(generate_scenario_log(10, SMALL.seed), tmp_path / "l.csv")
    (tmp_path / "m.json").write_text(json.dumps(org_map_for(3)))
    cfg = SMALL.with_overrides(**{k: str(tmp_path / v) for k, v in paths.items()})
    fixed = cfg.org_map_path if dimension == "orgs" else cfg.log_path
    with mock.patch.object(experiment, "run_experiment") as runs:
        with pytest.raises(ValueError, match="^cannot sweep %s: %s fixes them$" % (
            dimension, re.escape(fixed)
        )):
            scale_run(cfg, dimension, [1, 2, 3])
    assert runs.call_count == 0


def test_scale_run_checks_the_fit_can_use_its_points_before_any_session():
    cfg = ExperimentConfig(n_cases=10)
    with mock.patch.object(experiment, "run_experiment", wraps=experiment.run_experiment) as runs:
        with pytest.raises(ValueError, match="need at least 3 points, got 1"):
            scale_run(cfg, "cases", [10])
    assert runs.call_count == 0


def test_manifest_pins_algorithm_and_params():
    hm = build_manifest("heuristics")
    dec = build_manifest("declare")
    assert hm.canonical() == (
        "secure-miner\n%s\nheuristics\nall_connected=True\nand_threshold=0.65"
        "\ndependency_threshold=0.9\nloop2_threshold=0.9\nrelative_to_best=0.05" % __version__
    ).encode()
    assert dec.params == ()
