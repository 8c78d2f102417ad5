"""Experiment orchestration: wire up a session, run it, measure it.

``run_experiment`` builds partitions (from the scenario generator or a log
file) unless it is given them, spins up one secure miner and one
provisioner per organization over the deterministic in-process network,
runs the session to quiescence, and returns the mining output plus a
metrics trail sampled after every delivered message. One seed fixes the
interleaving, so runs are replayable: the recorded transcript can be fed
back to reproduce identical metrics.

:data:`ALGORITHMS` maps each algorithm's name to its sink class, which
names the parameters its build manifest pins (``params``) and the file
its output is written to (``output_name``).

``standalone_mining`` runs the same mining code directly on a pre-merged
log; protocol runs must converge to its outputs byte for byte.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, get_args, get_type_hints

from . import __version__
from .enclave import BuildManifest, OrgIdentity, compute_measurement
from .logio import LogIoError, load_log, split_log
from .mining.declare import ConformanceState
from .mining.dfg import DfgState, hm_observe
from .mining.heuristics import PARAMS, hm_finalize
from .mining.pnml import to_pnml
from .model import EventLog, ModelError, group_by_iid, merge_all
from .protocol import MinerConfig, Provisioner, ProvisionerConfig, SecureMiner
from .scenario import (
    ALL_ACTIVITIES,
    generate_scenario_log,
    max_case_events,
    org_map_for,
    scenario_declare_model,
)
from .stats import RegressionStats, check_xs, fit_stats
from .transport import DeliveryRecord, InProcessNetwork
from .wire import WireError, encode_log

__all__ = [
    "SessionFailed",
    "MINER_ORG_PROOF",
    "ALGORITHMS",
    "SCALE_DIMENSIONS",
    "SCALE_METRICS",
    "SESSION",
    "ExperimentConfig",
    "MetricSample",
    "RunMetrics",
    "ExperimentResult",
    "HeuristicsSink",
    "DeclareSink",
    "build_manifest",
    "build_session",
    "run_experiment",
    "feed_log",
    "standalone_mining",
    "scale_run",
    "write_metrics_csv",
    "write_transcript",
    "read_transcript",
]

MINER_ORG_PROOF = "org:miner"
SCALE_METRICS = ("peak_bytes", "mean_bytes", "message_count")  # each fixed by the seed
# Each scale_run dimension and the config field its values set.
SCALE_DIMENSIONS = {
    "events": "loop_iterations",
    "cases": "n_cases",
    "orgs": "n_orgs",
    "segsize": "seg_size",
}
SESSION = "session-1"


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
            raise ValueError("algorithm must be one of %s" % (tuple(ALGORITHMS),))
        for name in ("n_cases", "n_orgs", "loop_iterations"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be at least 1, got %d" % (name, getattr(self, name)))
        if self.n_orgs > len(ALL_ACTIVITIES):  # each org needs an activity of its own
            raise ValueError(
                "n_orgs must be at most %d, got %d" % (len(ALL_ACTIVITIES), self.n_orgs)
            )

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        """The config a JSON object of fields gives.

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
    samples: List[MetricSample]
    peak_bytes: int
    mean_bytes: float  # the accountant's, over its account calls
    message_count: int
    yield_count: int


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


def feed_log(sink, log: EventLog) -> None:
    """Hand each case of ``log`` to ``sink.on_case`` in ascending iid order,
    as a batch session does."""
    cases = group_by_iid(log)
    for iid in sorted(cases):
        sink.on_case(cases[iid])


class HeuristicsSink:
    """Feeds cases, in any order, into directly-follows counters."""

    params = PARAMS
    output_name = "model.pnml"

    def __init__(self) -> None:
        self.state = DfgState()

    def on_case(self, case: EventLog) -> None:
        hm_observe(self.state, case)

    # Bound for the benchmark's traced run (perfbench/spans.py), which wraps
    # it by name, until in-program spans replace the wrapping (ROADMAP item 5).
    on_log = feed_log

    def finalize_bytes(self) -> bytes:
        return to_pnml(hm_finalize(self.state))


class DeclareSink:
    """Checks cases against a constraint model; fed as :class:`HeuristicsSink`."""

    params = ()
    output_name = "fitness.json"

    def __init__(self) -> None:
        self.state = ConformanceState(scenario_declare_model())

    def on_case(self, case: EventLog) -> None:
        self.state.add_case(case)

    on_log = feed_log  # as HeuristicsSink's

    def finalize_bytes(self) -> bytes:
        return self.state.report_json()


ALGORITHMS = {"heuristics": HeuristicsSink, "declare": DeclareSink}


def build_manifest(algorithm: str) -> BuildManifest:
    return BuildManifest(
        component="secure-miner",
        version=__version__,
        algorithm=algorithm,
        params=ALGORITHMS[algorithm].params,
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
        if not log.events:
            raise LogIoError("the log holds no events")
        encode_log(log)  # every event must fit the wire, or no session could ship it
        if cfg.org_map_path is not None:
            path = cfg.org_map_path
            with Path(path).open() as fh:
                org_map = json.load(fh)
            if not isinstance(org_map, dict) or not all(isinstance(o, str) for o in org_map.values()):
                raise LogIoError("an org map is a JSON object that maps activities to org names")
            # Each org name becomes its events' provisioner id on the wire.
            for org in org_map.values():
                if len(org.encode("utf-8")) > 65535:
                    name = org if len(org) <= 40 else org[:40] + "..."
                    raise LogIoError(
                        "org name %r exceeds a wire limit: 65535 encoded bytes" % name
                    )
        return split_log(log, org_map)
    except (OSError, ValueError, LogIoError, ModelError, WireError) as exc:
        raise LogIoError("%s: %s" % (path, exc)) from exc


def run_experiment(
    cfg: ExperimentConfig,
    partitions: Optional[Dict[str, EventLog]] = None,
    *,
    replay_order: Optional[Sequence[Tuple[str, str]]] = None,
) -> ExperimentResult:
    """One session of ``cfg``, on ``partitions`` if given (already loaded
    for ``cfg``), else on the inputs ``cfg`` names or generates; with
    ``replay_order``, messages are delivered in that recorded order."""
    if partitions is None:
        partitions = _load_inputs(cfg)
    sink = ALGORITHMS[cfg.algorithm]()
    network, miner, _ = build_session(
        partitions,
        seed=cfg.seed,
        seg_size=cfg.seg_size,
        incremental=cfg.incremental,
        sink=sink,
        manifest=build_manifest(cfg.algorithm),
        capacity=cfg.capacity,
    )
    samples: List[MetricSample] = []

    def sample(record: DeliveryRecord) -> None:
        samples.append(
            MetricSample(
                step=record.step,
                phase=miner.phase_label,
                current_bytes=miner.accountant.current_bytes,
                peak_bytes=miner.accountant.peak_bytes,
                messages=record.step + 1,
            )
        )

    network.on_delivered = sample
    network.bootstrap()
    if replay_order is None:
        network.run()
    else:
        network.run_replay(replay_order)
    acc = miner.accountant
    metrics = RunMetrics(samples, acc.peak_bytes, acc.mean_bytes, network.step, miner.yield_count)
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
    sink = ALGORITHMS[algorithm]()
    feed_log(sink, log)
    return sink.finalize_bytes()


def scale_run(
    cfg: ExperimentConfig,
    dimension: str,
    values: Sequence[int],
) -> Tuple[List[Dict[str, float]], Dict[str, RegressionStats]]:
    """Sweep one input dimension and fit linear/log models to every metric.

    ``dimension`` is a key of :data:`SCALE_DIMENSIONS`: ``events`` (loop
    iterations; x is the maximum case length), ``cases`` (x is the case
    count), ``orgs`` (x is the organization count) or ``segsize`` (x is the
    segment budget, ``seg_size``). The seed fixes each of
    :data:`SCALE_METRICS`, so each point runs one session. Every row is
    ``{x, peak_bytes, mean_bytes, message_count}``, and the fits map each
    metric to its fit over the rows. Every point's config, the fit's x
    values, the input and the sweep are checked (``LogIoError`` for the
    input, else ``ValueError``) before any session runs: an input file fixes the cases and their
    lengths, and an org map the orgs, so sweeping them over one is an error.
    A session that is not done raises :class:`SessionFailed`. A segsize
    sweep loads its input once and mines it at every point; otherwise an
    input file is read once and re-split per org count, and a generated
    input is generated once per point.
    """
    if dimension not in SCALE_DIMENSIONS:
        dims = ", ".join(SCALE_DIMENSIONS)
        raise ValueError("dimension must be one of %s, got %r" % (dims, dimension))
    field = SCALE_DIMENSIONS[dimension]
    points = [
        (float(max_case_events(v) if dimension == "events" else v),
         cfg.with_overrides(**{field: v}))
        for v in values
    ]
    check_xs([x for x, _ in points])
    # A malformed input file is reported as such before the sweep is checked against it.
    loaded = _load_inputs(cfg) if dimension == "segsize" or cfg.log_path is not None else None
    fixed_by = {"segsize": None, "orgs": cfg.org_map_path}.get(dimension, cfg.log_path)
    if fixed_by is not None:
        raise ValueError("cannot sweep %s: %s fixes them" % (dimension, fixed_by))
    # Orgs over a log file: the file's log, split again per org count.
    log = merge_all(loaded.values()) if loaded is not None and dimension == "orgs" else None
    rows: List[Dict[str, float]] = []
    for x, point_cfg in points:
        if log is not None:
            partitions = split_log(log, org_map_for(point_cfg.n_orgs))
        elif loaded is not None:  # a segment budget leaves the input as it is
            partitions = loaded
        else:
            partitions = _load_inputs(point_cfg)
        metrics = _done(run_experiment(point_cfg, partitions)).metrics
        rows.append({"x": x, **{name: float(getattr(metrics, name)) for name in SCALE_METRICS}})
    xs = [r["x"] for r in rows]
    return rows, {name: fit_stats(xs, [r[name] for r in rows]) for name in SCALE_METRICS}


def write_metrics_csv(metrics: RunMetrics, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(MetricSample)])
        writer.writerows(astuple(s) for s in metrics.samples)


def write_transcript(transcript: Sequence[DeliveryRecord], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for rec in transcript:
            fh.write(json.dumps(asdict(rec), sort_keys=True))
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
