"""Experiment orchestration: wire up a session, run it, measure it.

``run_experiment`` builds partitions (from the scenario generator or a log
file), spins up one secure miner and one provisioner per organization over
the deterministic in-process network, runs the session to quiescence, and
returns the mining output plus a metrics trail sampled after every
delivered message. One seed fixes the interleaving, so runs are replayable:
the recorded transcript can be fed back to reproduce identical metrics.

``standalone_mining`` runs the same mining code directly on a pre-merged
log; protocol runs must converge to its outputs byte for byte.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, get_args, get_type_hints

from . import __version__
from .enclave import BuildManifest, OrgIdentity, compute_measurement
from .logio import LogIoError, load_log, split_log
from .mining.declare import ConformanceState, fitness_report_json
from .mining.dfg import DfgState, hm_observe
from .mining.heuristics import HeuristicsConfig, hm_finalize
from .mining.pnml import to_pnml
from .model import EventLog, ModelError, group_by_iid
from .protocol import MinerConfig, Provisioner, ProvisionerConfig, SecureMiner
from .scenario import generate_scenario_log, max_case_events, org_map_for, scenario_declare_model
from .stats import RegressionStats, check_xs, fit_stats
from .transport import DeliveryRecord, InProcessNetwork

__all__ = [
    "SessionFailed",
    "MINER_ORG_PROOF",
    "ALGORITHMS",
    "SESSION",
    "HEURISTICS",
    "ExperimentConfig",
    "MetricSample",
    "RunMetrics",
    "ExperimentResult",
    "HeuristicsSink",
    "DeclareSink",
    "build_manifest",
    "build_session",
    "run_experiment",
    "standalone_mining",
    "sweep_segsize",
    "scale_run",
    "write_metrics_csv",
    "write_transcript",
    "read_transcript",
]

MINER_ORG_PROOF = "org:miner"
ALGORITHMS = ("heuristics", "declare")
SESSION = "session-1"
# The heuristics parameters the miner runs with and attests to: the build
# manifest digests them, and HeuristicsSink mines with them.
HEURISTICS = HeuristicsConfig()


@dataclass(frozen=True)
class ExperimentConfig:
    n_cases: int = 1000
    seed: int = 1
    seg_size: int = 100_000
    incremental: bool = True
    algorithm: str = "heuristics"
    n_orgs: int = 3
    loop_iterations: int = 1
    capacity: Optional[int] = None
    log_path: Optional[str] = None
    org_map_path: Optional[str] = None
    iid_column: str = "case"

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError("algorithm must be one of %s" % (ALGORITHMS,))
        for name in ("n_cases", "n_orgs", "loop_iterations"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be at least 1, got %d" % (name, getattr(self, name)))

    @classmethod
    def from_json_file(cls, path, **overrides) -> "ExperimentConfig":
        """Fields from a JSON object, then every override that is not None.

        Raises ``ValueError`` for a document that is not an object, for a
        key that is not a field, and for a value of another type than its
        field's (a bool is not an int), naming the keys.
        """
        with Path(path).open() as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("a config is a JSON object, not %s" % type(data).__name__)
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError("unknown config key(s): %s" % ", ".join(unknown))
        hints = get_type_hints(cls)
        for key, value in sorted(data.items()):
            allowed = get_args(hints[key]) or (hints[key],)
            if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
                names = " or ".join("None" if t is type(None) else t.__name__ for t in allowed)
                raise ValueError("config key %s must be %s, not %r" % (key, names, value))
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        return replace(self, **{k: v for k, v in overrides.items() if v is not None})


@dataclass(frozen=True)
class MetricSample:
    step: int
    phase: str
    current_bytes: int
    peak_bytes: int
    messages: int


@dataclass
class RunMetrics:
    samples: List[MetricSample] = field(default_factory=list)
    peak_bytes: int = 0
    mean_bytes: float = 0.0
    message_count: int = 0
    yield_count: int = 0
    wall_ms: float = 0.0

    def comparable(self) -> Tuple:
        """Everything deterministic under a fixed seed (wall time excluded)."""
        return (
            tuple(self.samples),
            self.peak_bytes,
            self.mean_bytes,
            self.message_count,
            self.yield_count,
        )


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    metrics: RunMetrics
    output: bytes
    transcript: List[DeliveryRecord]
    miner_phase: str
    aborted_reason: Optional[str] = None  # an aborted miner's; see protocol
    aborted_message: str = ""


class SessionFailed(Exception):
    """A session whose miner aborted, worded as ``session aborted:
    <Reason>: <message>``."""

    def __init__(self, result: ExperimentResult) -> None:
        super().__init__("session aborted: %s: %s" % (result.aborted_reason, result.aborted_message))


def _done(result: ExperimentResult) -> ExperimentResult:
    if result.miner_phase != "done":
        raise SessionFailed(result)
    return result


class HeuristicsSink:
    """Feeds yielded cases (or a final log) into directly-follows counters."""

    def __init__(self) -> None:
        self.state = DfgState()

    def on_case(self, case: EventLog) -> None:
        hm_observe(self.state, case)

    def on_log(self, log: EventLog) -> None:
        cases = group_by_iid(log)
        for iid in sorted(cases):
            hm_observe(self.state, cases[iid])

    def finalize_bytes(self) -> bytes:
        return to_pnml(hm_finalize(self.state, HEURISTICS))


class DeclareSink:
    """Checks yielded cases (or a final log) against a constraint model."""

    def __init__(self) -> None:
        self.model = scenario_declare_model()
        self.state = ConformanceState(self.model)

    def on_case(self, case: EventLog) -> None:
        self.state.add_case(case)

    def on_log(self, log: EventLog) -> None:
        self.state.add_log(log)

    def finalize_bytes(self) -> bytes:
        return fitness_report_json(self.state.finalize(), self.model)


def _make_sink(algorithm: str):
    return HeuristicsSink() if algorithm == "heuristics" else DeclareSink()


def build_manifest(algorithm: str) -> BuildManifest:
    return BuildManifest(
        component="secure-miner",
        version=__version__,
        algorithm=algorithm,
        params=HEURISTICS.as_params() if algorithm == "heuristics" else (),
    )


def build_session(
    partitions: Dict[str, EventLog],
    *,
    seed: int,
    seg_size: int,
    incremental: bool,
    sink,
    manifest: BuildManifest,
    capacity: Optional[int] = None,
    network: Optional[InProcessNetwork] = None,
) -> Tuple[InProcessNetwork, SecureMiner, List[Provisioner]]:
    if network is None:
        network = InProcessNetwork(seed)
    identities = [OrgIdentity(org) for org in sorted(partitions)]
    reference = compute_measurement(manifest)
    miner = SecureMiner(
        MinerConfig(
            miner_id="miner",
            org_proof=MINER_ORG_PROOF,
            seg_size=seg_size,
            do_yield_cases=incremental,
            manifest=manifest,
            session=SESSION,
            provisioner_keys={i.org_id: i.public_bytes for i in identities},
            capacity=capacity,
        ),
        sink,
    )
    provisioners = [
        Provisioner(
            ProvisionerConfig(
                partition=partitions[identity.org_id],
                allowed_miners=frozenset({MINER_ORG_PROOF}),
                reference_measurement=reference,
                identity=identity,
                session=SESSION,
            )
        )
        for identity in identities
    ]
    network.register(miner)
    for prov in provisioners:
        network.register(prov)
    return network, miner, provisioners


def _load_inputs(cfg: ExperimentConfig) -> Dict[str, EventLog]:
    org_map = org_map_for(cfg.n_orgs)
    if cfg.log_path is None:
        log = generate_scenario_log(
            cfg.n_cases, cfg.seed, loop_iterations=cfg.loop_iterations, org_map=org_map
        )
        return split_log(log, org_map)
    path = cfg.log_path
    try:
        log = load_log(path, iid_column=cfg.iid_column)
        if cfg.org_map_path is not None:
            path = cfg.org_map_path
            with Path(path).open() as fh:
                org_map = json.load(fh)
            if not isinstance(org_map, dict) or not all(isinstance(o, str) for o in org_map.values()):
                raise LogIoError("an org map is a JSON object that maps activities to org names")
        return split_log(log, org_map)
    except (OSError, ValueError, LogIoError, ModelError) as exc:
        raise LogIoError("%s: %s" % (path, exc)) from exc


def _loader() -> Callable[[ExperimentConfig], Dict[str, EventLog]]:
    """:func:`_load_inputs` that loads each distinct input once, for a sweep
    whose sessions share their input."""
    loaded: Dict[Tuple, Dict[str, EventLog]] = {}

    def load(cfg: ExperimentConfig) -> Dict[str, EventLog]:
        # The settings _load_inputs reads: a log file ignores the generator's.
        if cfg.log_path is None:
            key: Tuple = (cfg.n_cases, cfg.seed, cfg.loop_iterations, cfg.n_orgs)
        else:
            key = (cfg.log_path, cfg.iid_column, cfg.org_map_path or cfg.n_orgs)
        if key not in loaded:
            loaded[key] = _load_inputs(cfg)
        return loaded[key]

    return load


def run_experiment(
    cfg: ExperimentConfig,
    *,
    replay_order: Optional[Sequence[Tuple[str, str]]] = None,
) -> ExperimentResult:
    return _run_session(cfg, _load_inputs(cfg), replay_order)


def _run_session(
    cfg: ExperimentConfig,
    partitions: Dict[str, EventLog],
    replay_order: Optional[Sequence[Tuple[str, str]]] = None,
) -> ExperimentResult:
    """:func:`run_experiment` on partitions already loaded for ``cfg``."""
    sink = _make_sink(cfg.algorithm)
    network, miner, _ = build_session(
        partitions,
        seed=cfg.seed,
        seg_size=cfg.seg_size,
        incremental=cfg.incremental,
        sink=sink,
        manifest=build_manifest(cfg.algorithm),
        capacity=cfg.capacity,
    )
    metrics = RunMetrics()

    def sample(record: DeliveryRecord) -> None:
        metrics.samples.append(
            MetricSample(
                step=record.step,
                phase=miner.phase_label,
                current_bytes=miner.accountant.current_bytes,
                peak_bytes=miner.accountant.peak_bytes,
                messages=record.step + 1,
            )
        )

    network.on_delivered = sample
    started = time.perf_counter()
    network.bootstrap()
    if replay_order is None:
        network.run()
    else:
        network.run_replay(replay_order)
    metrics.wall_ms = (time.perf_counter() - started) * 1000.0
    metrics.peak_bytes = miner.accountant.peak_bytes
    metrics.message_count = network.step
    metrics.yield_count = miner.yield_count
    if metrics.samples:
        metrics.mean_bytes = sum(s.current_bytes for s in metrics.samples) / len(metrics.samples)
    return ExperimentResult(
        config=cfg,
        metrics=metrics,
        output=sink.finalize_bytes() if miner.phase == "done" else b"",
        transcript=list(network.transcript),
        miner_phase=miner.phase,
        aborted_reason=miner.aborted_reason,
        aborted_message=miner.aborted_message,
    )


def standalone_mining(log: EventLog, algorithm: str) -> bytes:
    """Mining output for a pre-merged log, bypassing the protocol entirely."""
    sink = _make_sink(algorithm)
    sink.on_log(log)
    return sink.finalize_bytes()


def sweep_segsize(
    cfg: ExperimentConfig, sizes: Sequence[int]
) -> List[Tuple[int, RunMetrics]]:
    """Each budget's metrics; :class:`SessionFailed` if a session is not done.
    The input is loaded once for the whole sweep."""
    partitions = _load_inputs(cfg)
    return [
        (seg_size, _done(_run_session(cfg.with_overrides(seg_size=seg_size), partitions)).metrics)
        for seg_size in sizes
    ]


def scale_run(
    cfg: ExperimentConfig,
    dimension: str,
    values: Sequence[int],
    *,
    metric: str = "wall_ms",
    repeats: int = 3,
) -> Tuple[List[Dict[str, float]], RegressionStats]:
    """Sweep one input dimension and fit linear/log models to a metric.

    ``dimension`` is one of ``events`` (loop iterations; x is the maximum
    case length), ``cases`` (x is the case count), or ``orgs`` (x is the
    organization count). The metric per point is the median over
    ``repeats`` runs; one untimed warmup run precedes the sweep so cold
    caches do not distort the first point. Repeats are interleaved in
    rounds across all points so slow machine-wide drift does not bias the
    curve shape. Every point's config and the fit's x values are checked
    (``ValueError``) before any session runs; a session that is not done
    raises :class:`SessionFailed`. Each point's input is loaded once.
    """
    field_of = {"events": "loop_iterations", "cases": "n_cases", "orgs": "n_orgs"}
    if dimension not in field_of:
        raise ValueError("dimension must be events, cases, or orgs")
    points = [
        (float(max_case_events(v) if dimension == "events" else v),
         cfg.with_overrides(**{field_of[dimension]: v}))
        for v in values
    ]
    check_xs([x for x, _ in points])
    load = _loader()
    _done(_run_session(cfg, load(cfg)))
    runs: List[List[ExperimentResult]] = [[] for _ in points]
    for _ in range(max(1, repeats)):
        for slot, (_, point_cfg) in zip(runs, points):
            slot.append(_done(_run_session(point_cfg, load(point_cfg))))
    rows: List[Dict[str, float]] = []
    for (x, _), slot in zip(points, runs):
        picked = sorted(getattr(r.metrics, metric) for r in slot)[len(slot) // 2]
        rows.append(
            {
                "x": x,
                metric: float(picked),
                "peak_bytes": float(slot[0].metrics.peak_bytes),
                "message_count": float(slot[0].metrics.message_count),
            }
        )
    stats = fit_stats([r["x"] for r in rows], [r[metric] for r in rows])
    return rows, stats


def write_metrics_csv(metrics: RunMetrics, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "phase", "current_bytes", "peak_bytes", "messages"])
        for s in metrics.samples:
            writer.writerow([s.step, s.phase, s.current_bytes, s.peak_bytes, s.messages])


def write_transcript(transcript: Sequence[DeliveryRecord], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for rec in transcript:
            fh.write(
                json.dumps(
                    {
                        "step": rec.step,
                        "sender": rec.sender,
                        "receiver": rec.receiver,
                        "size": rec.size,
                    },
                    sort_keys=True,
                )
            )
            fh.write("\n")


def read_transcript(path) -> List[Tuple[str, str]]:
    order = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            order.append((doc["sender"], doc["receiver"]))
    return order
