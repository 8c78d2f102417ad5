"""Workloads, session set-up, the timed session and its correctness gate.

A run derives ``k`` draws from the workload seed, each an input seed (for
the scenario generator) and a schedule seed (for the in-process network's
delivery order), then runs whole in-process sessions (bootstrap -> run ->
finalize) back to back. Session ``i`` uses draw ``i mod k``, and every run
covers all ``k`` draws, so the byte and message figures of a seed repeat
exactly whatever the number of sessions the time allowed. Drawing inputs as
well as orders keeps one unlucky input from moving a run's figures much.

Wall times are reported on the host clock of ``hostspeed``: each set-up and
session is scaled by the reference work timed just before and just after it.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from enclavemine import wire
from enclavemine.experiment import (
    DeclareSink,
    HeuristicsSink,
    build_manifest,
    build_session,
    standalone_mining,
)
from enclavemine.logio import split_log
from enclavemine.model import EventLog, iid_set, merge_all
from enclavemine.protocol import SecureMiner
from enclavemine.scenario import generate_scenario_log, org_map_for
from enclavemine.transport import InProcessNetwork

from .hostspeed import REFERENCE_S, HostClock
from .spans import Recorder, aggregate, instrumented, tail_percentile

N_ORGS = 3
# Set-ups per run that run no session, so setup_s is a median of many
# samples even when few sessions fit the run.
SETUP_REPEATS = 10

Draw = Tuple[int, int]  # (input seed, schedule seed)


@dataclass(frozen=True)
class Workload:
    name: str
    n_cases: int
    loop_iterations: int
    seg_size: int
    algorithm: str
    incremental: bool
    draws: int  # (input, schedule) draws every run covers
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "bulk-hm-inc", 500, 1, 100_000, "heuristics", True, 32,
            "500 cases, 1 loop, seg 100000 B, heuristics, incremental (the README quick"
            " start at half scale, ~4 segments): segment planning and fragment ingest dominate",
        ),
        Workload(
            "chatty-decl-inc", 500, 1, 2_000, "declare", True, 32,
            "500 cases, 1 loop, seg 2000 B, declare, incremental (~215 deliveries): the"
            " per-message path, and an enclave peak that depends on delivery order",
        ),
        Workload(
            "whole-hm-batch", 200, 3, 5_000_000, "heuristics", False, 16,
            "200 cases, 3 loops, seg 5000000 B, heuristics, batch (one segment per"
            " provisioner): the planner's per-case re-sort and the batch path",
        ),
    )
}


def draws(workload: Workload, seed: int) -> List[Draw]:
    rng = random.Random("%s:%d" % (workload.name, seed))
    return [(rng.randrange(2**31), rng.randrange(2**32)) for _ in range(workload.draws)]


class FirstCallSink:
    """Delegates to the mining sink and notes when the protocol first calls it."""

    def __init__(self, sink) -> None:
        self.sink = sink
        self.first_call_at: Optional[float] = None

    def on_case(self, case: EventLog) -> None:
        if self.first_call_at is None:
            self.first_call_at = perf_counter()
        self.sink.on_case(case)

    def on_log(self, log: EventLog) -> None:
        if self.first_call_at is None:
            self.first_call_at = perf_counter()
        self.sink.on_log(log)

    def finalize_bytes(self) -> bytes:
        return self.sink.finalize_bytes()


@dataclass
class Session:
    draw: Draw
    partitions: Dict[str, EventLog]
    network: InProcessNetwork
    miner: SecureMiner
    sink: FirstCallSink
    setup_s: float


def setup(workload: Workload, draw: Draw, rec: Optional[Recorder] = None) -> Session:
    """Generate, split and wire one session: everything before ``bootstrap``."""
    span: Callable = rec.span if rec is not None else (lambda name: nullcontext())
    input_seed, schedule_seed = draw
    started = perf_counter()
    with span("scenario.generate"):
        org_map = org_map_for(N_ORGS)
        log = generate_scenario_log(
            workload.n_cases, input_seed, loop_iterations=workload.loop_iterations, org_map=org_map
        )
    with span("logio.split"):
        partitions = split_log(log, org_map)
    with span("experiment.build_session"):
        sink = FirstCallSink(HeuristicsSink() if workload.algorithm == "heuristics" else DeclareSink())
        network, miner, _ = build_session(
            partitions,
            seed=schedule_seed,
            seg_size=workload.seg_size,
            incremental=workload.incremental,
            sink=sink,
            manifest=build_manifest(workload.algorithm),
        )
    return Session(draw, partitions, network, miner, sink, perf_counter() - started)


class Expected:
    """Standalone mining of the merged partitions, once per input seed."""

    def __init__(self, algorithm: str) -> None:
        self.algorithm = algorithm
        self._by_input: Dict[int, bytes] = {}

    def __call__(self, session: Session) -> bytes:
        input_seed = session.draw[0]
        if input_seed not in self._by_input:
            merged = merge_all(session.partitions.values())
            self._by_input[input_seed] = standalone_mining(merged, self.algorithm)
        return self._by_input[input_seed]


def gate(phase: str, output: Optional[bytes], expected: bytes) -> Optional[str]:
    """Why a finished session is wrong, or None when it is right."""
    if phase != "done":
        return "miner ended in phase %r" % phase
    if output != expected:
        return "output differs from standalone mining of the merged log"
    return None


@dataclass
class Outcome:
    draw: Draw
    failure: Optional[str]
    session_s: float
    first_case_s: float
    peak_bytes: int
    mean_bytes: float
    messages: int
    wire_bytes: int
    cstor_max_cases: int
    yield_count: int
    reference_s: float = REFERENCE_S  # host reference time around the session


def run_session(session: Session, expected: bytes) -> Outcome:
    """Time bootstrap -> run -> finalize, then gate the output (untimed)."""
    miner, network = session.miner, session.network
    current: List[int] = []
    cstor_max = 0

    def sample(record) -> None:
        nonlocal cstor_max
        current.append(miner.accountant.current_bytes)
        cstor_max = max(cstor_max, len(miner.cstor))

    network.on_delivered = sample
    output: Optional[bytes] = None
    failure: Optional[str] = None
    gc.collect()
    started = perf_counter()
    try:
        network.bootstrap()
        network.run()
        output = session.sink.finalize_bytes()
    except Exception as exc:  # a raising session is a counted failure, not a crash
        failure = "raised %s: %s" % (type(exc).__name__, exc)
    ended = perf_counter()
    if failure is None:
        failure = gate(miner.phase, output, expected)
    first = session.sink.first_call_at
    return Outcome(
        draw=session.draw,
        failure=failure,
        session_s=ended - started,
        first_case_s=(first if first is not None else ended) - started,
        peak_bytes=miner.accountant.peak_bytes,
        mean_bytes=statistics.fmean(current) if current else 0.0,
        messages=network.step,
        wire_bytes=sum(r.size for r in network.transcript),
        cstor_max_cases=cstor_max,
        yield_count=miner.yield_count,
    )


@dataclass
class Run:
    draws: List[Draw]
    outcomes: List[Outcome]
    setup_samples: List[Tuple[float, float]]  # (raw set-up, host reference around it)
    references: List[float]  # every host reference sample, in order

    @property
    def passed(self) -> List[Outcome]:
        return [o for o in self.outcomes if o.failure is None]

    @property
    def failed_share(self) -> float:
        return (len(self.outcomes) - len(self.passed)) / len(self.outcomes)


def _sessions(run_draws: List[Draw], seconds: float, body: Callable[[Draw], None]) -> None:
    """Call ``body(draw)`` until every draw ran once and the time is up.

    A session is not started when the slowest one so far would end past the
    deadline, so a run overshoots ``seconds`` by little.
    """
    deadline = perf_counter() + seconds
    slowest = 0.0
    i = 0
    while i < len(run_draws) or perf_counter() + slowest < deadline:
        started = perf_counter()
        body(run_draws[i % len(run_draws)])
        slowest = max(slowest, perf_counter() - started)
        i += 1


def measure(workload: Workload, seed: int, seconds: float) -> Run:
    """The untraced run: end-to-end figures only.

    The host reference is timed once before the first set-up, once after
    every set-up-only sample, and right before and right after every
    session, so nothing but the session lies between a session's two samples.
    """
    clock = HostClock()
    run = Run(draws(workload, seed), [], [], clock.samples)
    clock.tick()
    for _ in range(SETUP_REPEATS):
        took = setup(workload, run.draws[0]).setup_s
        clock.tick()
        run.setup_samples.append((took, clock.around_last()))
    expected = Expected(workload.algorithm)

    def body(draw: Draw) -> None:
        session = setup(workload, draw)
        want = expected(session)
        clock.tick()
        run.setup_samples.append((session.setup_s, clock.around_last()))
        outcome = run_session(session, want)
        clock.tick()
        outcome.reference_s = clock.around_last()
        run.outcomes.append(outcome)

    _sessions(run.draws, seconds, body)
    return run


def on_host_clock(raw_s: float, reference_s: float) -> float:
    """A wall time scaled to a host on which the reference takes REFERENCE_S."""
    return raw_s * REFERENCE_S / reference_s


def end_to_end(workload: Workload, run: Run) -> Dict[str, float]:
    """End-to-end metrics of a run with at least one passing session.

    Timings are on the host clock and are medians over every passing
    session. Byte and message figures take one session per draw, so they
    do not depend on how many fit the run; the enclave peak is the largest
    of these, the others their median.
    """
    ok = run.passed
    distinct = list({o.draw: o for o in reversed(ok)}.values())
    session_s = [on_host_clock(o.session_s, o.reference_s) for o in ok]
    return {
        "session_s": statistics.median(session_s),
        "first_case_s": statistics.median(on_host_clock(o.first_case_s, o.reference_s) for o in ok),
        "cases_per_s": workload.n_cases * len(ok) / sum(session_s),
        "setup_s": statistics.median(on_host_clock(raw, ref) for raw, ref in run.setup_samples),
        "enclave_peak_bytes": max(o.peak_bytes for o in distinct),
        "enclave_mean_bytes": statistics.median(o.mean_bytes for o in distinct),
        "messages": statistics.median(o.messages for o in distinct),
        "wire_bytes": statistics.median(o.wire_bytes for o in distinct),
        "rss_peak_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


@dataclass
class TracedRun(Run):
    layers: List[Dict[str, float]]  # per-layer metrics of each passing pair
    first: Optional[Recorder]  # spans of the first passing traced session


def measure_traced(workload: Workload, seed: int, seconds: float) -> TracedRun:
    """The traced run: pairs of one untraced and one traced session.

    Every pair uses the first draw, so their counts agree exactly.
    """
    run = TracedRun(draws(workload, seed)[:1], [], [], [], [], None)
    expected = Expected(workload.algorithm)

    def body(draw: Draw) -> None:
        session = setup(workload, draw)
        plain = run_session(session, expected(session))
        rec = Recorder()
        session = setup(workload, draw, rec)
        with instrumented(rec):
            traced = run_session(session, expected(session))
        run.outcomes += [plain, traced]
        if plain.failure is None and traced.failure is None:
            run.layers.append(layer_metrics(workload, rec, traced, plain))
            run.first = run.first or rec

    _sessions(run.draws, seconds, body)
    return run


def layer_metrics(workload: Workload, rec: Recorder, traced: Outcome, plain: Outcome) -> Dict[str, float]:
    """Per-layer figures of one traced session and its untraced twin."""
    calls, busy, own = aggregate(rec.spans)
    multi = [seg for plan in rec.plans for seg in plan.segments if len(iid_set(seg)) > 1]
    fill = (
        sum(len(wire.encode_log(seg)) for seg in multi) / (len(multi) * workload.seg_size)
        if multi
        else 0.0
    )
    waits = [ns / 1e9 for ns in rec.queue_waits_ns]
    tail_pct, tail = tail_percentile(waits)
    s = 1e-9
    return {
        "scenario.generate_s": busy["scenario.generate"] * s,
        "logio.split_s": busy["logio.split"] * s,
        "experiment.build_session_s": busy["experiment.build_session"] * s,
        "segmenter.plan_s": busy["segmenter.plan"] * s,
        "segmenter.segments": sum(len(plan.segments) for plan in rec.plans),
        "segmenter.size_of_calls": calls["segmenter.size_of"],
        "segmenter.fill_ratio": fill,
        "wire.encode_s": busy["wire.encode"] * s,
        "wire.encode_calls": calls["wire.encode"],
        "wire.encoded_bytes": rec.encoded_bytes,
        "wire.decode_s": busy["wire.decode"] * s,
        "wire.decode_calls": calls["wire.decode"],
        "model.extract_case_s": busy["model.extract_case"] * s,
        "model.extract_case_calls": calls["model.extract_case"],
        "model.merge_s": busy["model.merge"] * s,
        "model.merge_calls": calls["model.merge"],
        "model.merge_all_s": busy["model.merge_all"] * s,
        "model.eventlog_builds": calls["model.eventlog_build"],
        "enclave.attest_s": busy["enclave.attest"] * s,
        "enclave.seal_s": busy["enclave.seal"] * s,
        "enclave.open_s": busy["enclave.open"] * s,
        "enclave.seals": calls["enclave.seal"],
        "protocol.miner_self_s": own["protocol.miner"] * s,
        "protocol.provisioner_self_s": own["protocol.provisioner"] * s,
        "protocol.msg_codec_s": busy["protocol.msg_codec"] * s,
        "protocol.cases_yielded": traced.yield_count,
        "protocol.cstor_max_cases": traced.cstor_max_cases,
        "transport.scheduler_self_s": (own["transport.deliver"] + own["transport.send"]) * s,
        "transport.deliveries": calls["transport.deliver"],
        "transport.max_backlog": rec.max_backlog,
        "transport.queue_wait_p50_s": statistics.median(waits) if waits else 0.0,
        "transport.queue_wait_p99_s": tail,
        "transport.queue_wait_tail_pct": tail_pct,
        "mining.observe_s": busy["mining.observe"] * s,
        "mining.finalize_s": busy["mining.finalize"] * s,
        "mining.cases_observed": rec.cases_observed,
        "trace.overhead_ratio": traced.session_s / plain.session_s,
    }
