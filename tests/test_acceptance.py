"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Run under pytest (one test per criterion) or directly::

    python3 tests/test_acceptance.py

Each criterion prints exactly one line, ``criterion N: PASS - ...`` or
``criterion N: FAIL - ...`` (pytest shows them with ``-s``).
"""

import json
import random
import time
import warnings
from fractions import Fraction

from enclavemine.enclave import OrgIdentity
from enclavemine.experiment import (
    ExperimentConfig,
    build_manifest,
    build_session,
    run_experiment,
    scale_run,
    standalone_mining,
)
from enclavemine.model import (
    Event,
    EventLog,
    extract_case,
    group_by_iid,
    iid_set,
    log_from_events,
    merge,
    merge_all,
)
from enclavemine.scenario import (
    ALL_ACTIVITIES,
    generate_scenario_log,
    org_map_for,
)
from enclavemine.segmenter import segment_event_log, size_of
from enclavemine.stats import fit_stats
from enclavemine.wire import EMPTY_LOG_SIZE

from doubles import CollectorSink

CHECKS = []


def criterion(number, description):
    def register(fn):
        CHECKS.append((number, description, fn))
        return fn

    return register


def _sorted_union(*logs):
    events = [ev for log in logs for ev in log]
    return EventLog(
        tuple(sorted(events, key=lambda e: (e.timestamp, e.provisioner_id, e.event_id)))
    )


def _random_events(rng, n_cases, provisioners, tag, min_events=2, max_events=6):
    events = []
    counter = 0
    for c in range(n_cases):
        iid = "c%05d" % c
        t = rng.randint(0, 10_000)
        for _ in range(rng.randint(min_events, max_events)):
            t += rng.randint(0, 40)
            events.append(
                Event(
                    event_id="%s-%06d" % (tag, counter),
                    iid=iid,
                    activity=rng.choice("ABCDEFGH"),
                    timestamp=t,
                    provisioner_id=rng.choice(provisioners),
                )
            )
            counter += 1
    return events


# -- criterion 1 -------------------------------------------------------------


@criterion(1, "merge algebra holds on 1000 random disjoint triples in under 10s")
def check_merge_algebra():
    rng = random.Random(20240801)
    started = time.perf_counter()
    for trial in range(1000):
        provs = ["p1", "p2"]
        logs = []
        for part in range(3):
            n = rng.randint(1, 4)
            logs.append(
                log_from_events(
                    _random_events(rng, n, provs, "t%d.%d" % (trial, part), 1, 5)
                )
            )
        a, b, c = logs
        left = merge(a, merge(b, c))
        right = merge(merge(a, b), c)
        assert left == right
        assert left == _sorted_union(a, b, c)
        assert merge(a, b) == merge(b, a)
        assert merge(a, EventLog()) == a
        assert merge(EventLog(), a) == a
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, "algebra sweep took %.2fs" % elapsed


# -- criterion 2 -------------------------------------------------------------


@criterion(2, "200 randomized protocol sessions equal the brute-force union in under 60s")
def check_randomized_sessions():
    rng = random.Random(77)
    started = time.perf_counter()
    for trial in range(200):
        n_prov = rng.randint(2, 6)
        provs = ["org%d" % i for i in range(1, n_prov + 1)]
        n_cases = rng.randint(10, 200)
        events = _random_events(rng, n_cases, provs, "s%d" % trial)
        full = _sorted_union(log_from_events(events))
        partitions = {}
        for p in provs:
            mine = [ev for ev in events if ev.provisioner_id == p]
            partitions[p] = log_from_events(mine)
        case_bound = max(
            (
                size_of(extract_case(part, iid))
                for part in partitions.values()
                for iid in iid_set(part)
            ),
            default=EMPTY_LOG_SIZE + 1,
        )
        partition_bound = max(size_of(part) for part in partitions.values())
        seg_size = rng.randint(case_bound, max(case_bound + 1, partition_bound + 64))
        sink = CollectorSink()
        network, miner, _ = build_session(
            partitions,
            seed=trial,
            seg_size=seg_size,
            incremental=True,
            sink=sink,
            manifest=build_manifest("heuristics"),
        )
        network.bootstrap()
        network.run()
        assert miner.phase == "done", "trial %d stuck in %s" % (trial, miner.phase)
        merged = merge_all(sink.cases) if sink.cases else EventLog()
        assert merged.events == full.events, "trial %d diverged" % trial
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, "session sweep took %.2fs" % elapsed


# -- criterion 3 -------------------------------------------------------------


@criterion(3, "1000-case protocol run converges byte-identically for both algorithms in under 2min")
def check_convergence_at_scale():
    started = time.perf_counter()
    cfg = ExperimentConfig(n_cases=1000, seed=1, seg_size=100_000, incremental=True)
    log = generate_scenario_log(1000, 1, org_map=org_map_for(3))

    mined = run_experiment(cfg)
    assert mined.miner_phase == "done"
    assert mined.output == standalone_mining(log, "heuristics")
    assert mined.output.startswith(b"<?xml")

    declare_inc = run_experiment(cfg.with_overrides(algorithm="declare"))
    declare_bat = run_experiment(
        cfg.with_overrides(algorithm="declare", incremental=False)
    )
    direct = standalone_mining(log, "declare")
    assert declare_inc.output == direct
    assert declare_bat.output == direct

    report = json.loads(direct)
    fitnesses = [Fraction(t["fitness_exact"]) for t in report["per_trace"].values()]
    assert len(fitnesses) == 1000
    assert Fraction(report["aggregate_exact"]) == sum(fitnesses, Fraction(0)) / len(fitnesses)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, "convergence checks took %.2fs" % elapsed


# -- criterion 4 -------------------------------------------------------------


@criterion(4, "generator: 19 activities; case lengths in [9, 18] with mean 14 +/- 1 for seeds 1..5")
def check_generator_shape():
    seen = set()
    for seed in (1, 2, 3, 4, 5):
        log = generate_scenario_log(1000, seed)
        lengths = [len(c) for c in group_by_iid(log).values()]
        assert len(lengths) == 1000
        assert min(lengths) >= 9, "seed %d: min %d" % (seed, min(lengths))
        assert max(lengths) <= 18, "seed %d: max %d" % (seed, max(lengths))
        mean = sum(lengths) / len(lengths)
        assert abs(mean - 14.0) <= 1.0, "seed %d: mean %.3f" % (seed, mean)
        seen |= log.activity_set()
    assert seen == set(ALL_ACTIVITIES)
    assert len(seen) == 19


# -- criterion 5 -------------------------------------------------------------


@criterion(5, "incremental peak memory under 0.7x the batch peak at 100KB segments")
def check_incremental_memory_win():
    cfg = ExperimentConfig(n_cases=1000, seed=1, seg_size=100_000)
    inc = run_experiment(cfg)
    bat = run_experiment(cfg.with_overrides(incremental=False))
    assert inc.metrics.peak_bytes > 0
    ratio = inc.metrics.peak_bytes / bat.metrics.peak_bytes
    assert ratio < 0.7, "peak ratio %.3f (inc %d, batch %d)" % (
        ratio,
        inc.metrics.peak_bytes,
        bat.metrics.peak_bytes,
    )


# -- criterion 6 -------------------------------------------------------------


@criterion(6, "message count never rises with segment budget; constant once partitions fit whole")
def check_segsize_traffic():
    sizes = [50_000, 100_000, 500_000, 1_000_000, 5_000_000]
    cfg = ExperimentConfig(n_cases=1000, seed=1)
    rows, _ = scale_run(cfg, "segsize", sizes)
    counts = [row["message_count"] for row in rows]
    assert all(a >= b for a, b in zip(counts, counts[1:])), "counts %s" % counts

    log = generate_scenario_log(1000, 1, org_map=org_map_for(3))
    partitions = {}
    for ev in log:
        partitions.setdefault(ev.provisioner_id, []).append(ev)
    whole = []
    for evs in partitions.values():
        part = log_from_events(evs)
        # A budget at or above the summed standalone case encodings always
        # yields a single segment for the partition.
        whole.append(
            sum(size_of(extract_case(part, iid)) for iid in iid_set(part))
        )
    one_segment_at = max(whole)
    settled = [c for s, c in zip(sizes, counts) if s >= one_segment_at]
    assert len(settled) >= 2, "sweep never reached the one-segment regime"
    assert len(set(settled)) == 1, "counts kept changing: %s" % settled


# -- criterion 7 -------------------------------------------------------------


def _normal_equations(xs, ys, transform):
    import math

    ts = [transform(float(x)) for x in xs]
    n = len(ts)
    st, sy = sum(ts), sum(ys)
    stt = sum(t * t for t in ts)
    sty = sum(t * y for t, y in zip(ts, ys))
    slope = (n * sty - st * sy) / (n * stt - st * st)
    intercept = (sy - slope * st) / n
    mean = sy / n
    ss_res = sum((y - (intercept + slope * t)) ** 2 for t, y in zip(ts, ys))
    ss_tot = sum((y - mean) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


@criterion(7, "regression fits match closed form at 1e-9; org scaling looks linear, not logarithmic")
def check_scaling_statistics():
    import math

    rng = random.Random(4242)
    for _ in range(50):
        n = rng.randint(3, 30)
        xs = rng.sample(range(1, 2000), n)
        ys = [3.0 + 0.25 * x + rng.uniform(-5, 5) for x in xs]
        got = fit_stats(xs, ys)
        for transform, slope, intercept, r2 in (
            (lambda v: v, got.slope, got.intercept, got.r2_linear),
            (math.log, got.log_slope, got.log_intercept, got.r2_log),
        ):
            want = _normal_equations(xs, ys, transform)
            for g, w in zip((slope, intercept, r2), want):
                scale = max(abs(w), 1e-12)
                assert abs(g - w) / scale < 1e-9, "fit drifted: %r vs %r" % (g, w)

    # Session traffic is the deterministic per-organization cost in this
    # simulation: every extra provisioner adds a fixed handshake plus its
    # own segment stream, so message volume grows linearly with orgs.
    cfg = ExperimentConfig(n_cases=200, seed=1, seg_size=100_000)
    _, fits = scale_run(cfg, "orgs", list(range(1, 9)))
    stats = fits["message_count"]
    assert stats.slope > 0
    assert stats.r2_linear > stats.r2_log, (
        "org sweep: r2_linear %.4f <= r2_log %.4f" % (stats.r2_linear, stats.r2_log)
    )


# -- criterion 8 -------------------------------------------------------------


def _attestation_session(mutate):
    partitions = {}
    log = generate_scenario_log(30, 2, org_map=org_map_for(3))
    for ev in log:
        partitions.setdefault(ev.provisioner_id, []).append(ev)
    partitions = {org: log_from_events(evs) for org, evs in partitions.items()}
    manifest = build_manifest("heuristics")
    sink = CollectorSink()
    network, miner, provisioners = build_session(
        partitions,
        seed=3,
        seg_size=100_000,
        incremental=True,
        sink=sink,
        manifest=manifest,
    )
    for prov in provisioners:
        mutate(prov)
    network.bootstrap()
    network.run()
    return network, miner, sink, provisioners, log


@criterion(8, "attestation gate: tampered evidence ships zero segments; honest evidence completes")
def check_attestation_gate():
    from dataclasses import replace
    from enclavemine.enclave import BuildManifest, compute_measurement

    wrong_measurement = compute_measurement(
        BuildManifest(component="secure-miner", version="0.1.0", algorithm="other")
    )
    rogue_root = OrgIdentity("hardware-root", bytes(range(32)))

    mutations = {
        "wrong measurement": lambda p: setattr(
            p, "config", replace(p.config, reference_measurement=wrong_measurement)
        ),
        "unknown signing root": lambda p: setattr(
            p, "config", replace(p.config, root_public=rogue_root.public_bytes)
        ),
        "unauthorized miner org": lambda p: setattr(
            p, "config", replace(p.config, allowed_miners=frozenset({"org:elsewhere"}))
        ),
    }
    expected_abort = {
        "wrong measurement": ("EvidenceRejected", "measurement_mismatch"),
        "unknown signing root": ("EvidenceRejected", "signature_invalid"),
        "unauthorized miner org": ("MinerRefused", None),
    }
    for name, mutate in mutations.items():
        network, miner, sink, provisioners, _ = _attestation_session(mutate)
        assert miner.phase != "done", "%s: session completed" % name
        assert sink.cases == [], "%s: data leaked" % name
        assert miner.accountant.peak_bytes == 0, "%s: segments reached the miner" % name
        for prov in provisioners:
            # At most its refs: no cases_res, not even an empty end mark.
            sent = sum(1 for r in network.transcript if r.sender == prov.node_id)
            assert sent <= 1, "%s: provisioner shipped" % name
            assert prov.phase == "aborted", "%s: provisioner phase %s" % (name, prov.phase)
            reason, message = expected_abort[name]
            assert prov.aborted_reason == reason, "%s: %s" % (name, prov.aborted_reason)
            if message is not None:
                assert prov.aborted_message == message

    _, miner, sink, provisioners, log = _attestation_session(lambda p: None)
    assert miner.phase == "done"
    assert all(p.phase == "done" for p in provisioners)
    assert merge_all(sink.cases) == log


# -- criterion 9 -------------------------------------------------------------


@criterion(9, "segment plans keep every invariant on 1000 random partitions in under 10s")
def check_segmentation_invariants():
    rng = random.Random(90210)
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for trial in range(1000):
            n_cases = rng.randint(1, 10)
            partition = log_from_events(
                _random_events(rng, n_cases, ["p"], "g%d" % trial, 1, 6)
            )
            full = size_of(partition)
            seg_size = rng.randint(EMPTY_LOG_SIZE + 1, full + 50)
            requested = sorted(iid_set(partition))
            caught.clear()
            plan = segment_event_log(partition, seg_size)

            landed = []
            for seg in plan.segments:
                assert len(seg) > 0
                cases = group_by_iid(seg)
                landed.extend(cases)
                if len(cases) > 1:
                    assert size_of(seg) <= seg_size
            # The plan cuts its segments, and warns, when they are read.
            assert len(caught) <= 1, "one warning per plan at most"
            warned = [iid for w in caught for iid in str(w.message).split(": ", 1)[1].split(", ")]
            assert sorted(landed) == requested
            assert merge_all(plan.segments) == partition
            # A warning names each case that alone passes the budget, once.
            assert warned == [
                iid for iid in requested if size_of(extract_case(partition, iid)) > seg_size
            ]
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, "segmentation sweep took %.2fs" % elapsed


# -- harness -----------------------------------------------------------------


def _run_one(number):
    num, description, fn = next(c for c in CHECKS if c[0] == number)
    try:
        fn()
    except BaseException as exc:
        print("criterion %d: FAIL - %s (%s)" % (num, description, exc))
        raise
    print("criterion %d: PASS - %s" % (num, description))


def test_criterion_1_merge_algebra():
    _run_one(1)


def test_criterion_2_randomized_sessions():
    _run_one(2)


def test_criterion_3_convergence_at_scale():
    _run_one(3)


def test_criterion_4_generator_shape():
    _run_one(4)


def test_criterion_5_incremental_memory_win():
    _run_one(5)


def test_criterion_6_segsize_traffic():
    _run_one(6)


def test_criterion_7_scaling_statistics():
    _run_one(7)


def test_criterion_8_attestation_gate():
    _run_one(8)


def test_criterion_9_segmentation_invariants():
    _run_one(9)


if __name__ == "__main__":
    import sys

    failed = 0
    for num, _, _ in sorted(CHECKS):
        try:
            _run_one(num)
        except BaseException:
            failed += 1
    sys.exit(1 if failed else 0)
