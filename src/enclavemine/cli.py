"""Command-line harness for generating logs and running protocol experiments.

Subcommands:

* ``generate``            write a synthetic scenario log as CSV
* ``split``               partition a log per organization
* ``run``                 one protocol session with metrics and mining output
* ``scale``               sweeps of a counted metric over events, cases, orgs or
                          segment size, with linear/log fits
* ``stats``               fit linear/log models to columns of a CSV
* ``verify-convergence``  protocol output equals standalone mining, byte-wise

``run``, ``scale`` and ``verify-convergence`` accept ``--config`` (a JSON file
of ExperimentConfig fields); explicit flags override file values, once the
file gives a valid config on its own. A file that cannot be read, is not a
JSON object, has a key that is not a field, or has a value of the wrong
type is a one-line usage error with exit status 2, and
so is a case, org or loop count below 1, or an org count above 19 (one per
scenario activity), from a file, a flag or a ``scale`` value. So is an
input log or org map that cannot be read, parsed or split, an input log
that holds no events, an input log with an event over a wire limit (a
timestamp past u64, or a string field over 65535 encoded bytes) or an org
name over 65535 encoded bytes that no session could ship, a ``split`` org
name that is not a plain file name, a
``generate`` count out of the same range, a ``--values`` list that is not
integers (an empty one among them), and a
``stats`` CSV that cannot be read, parsed or fitted (a cell that is not a
finite number among them).
So is a ``scale`` sweep of cases or events over ``--log``, or of orgs with
``--org-map``, which fix them; a segsize sweep loads its input once. ``scale``
runs one session per point, since the seed fixes every metric it measures,
writes every metric's column and fits each one: ``stats`` on a column of
its CSV gives the same fit.
A ``run``, ``scale`` or ``verify-convergence`` session that is not done
prints ``session aborted: <Reason>: <message>`` and exits 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from pathlib import Path
from typing import NoReturn

from .experiment import (
    ALGORITHMS,
    SCALE_DIMENSIONS,
    ExperimentConfig,
    SessionFailed,
    _done,
    _load_inputs,
    _run_session,
    run_experiment,
    scale_run,
    standalone_mining,
    write_metrics_csv,
    write_transcript,
)
from .logio import LogIoError, save_csv
from .model import iid_set, merge_all
from .scenario import generate_scenario_log, org_map_for
from .stats import fit_stats

__all__ = ["main", "build_parser"]


def _usage_error(args: argparse.Namespace, message) -> NoReturn:
    print("enclavemine %s: error: %s" % (args.command, message), file=sys.stderr)
    raise SystemExit(2)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with experiment settings")
    p.add_argument("--cases", type=int, dest="n_cases")
    p.add_argument("--seed", type=int)
    p.add_argument("--seg-size", type=int, dest="seg_size")
    p.add_argument("--orgs", type=int, dest="n_orgs")
    p.add_argument("--loop", type=int, dest="loop_iterations")
    p.add_argument("--algorithm", choices=ALGORITHMS)
    p.add_argument(
        "--mode",
        choices=("incremental", "batch"),
        help="incremental mines each case as it completes; batch mines every case at the end",
    )
    p.add_argument("--log", dest="log_path", help="input log file (CSV or XES)")
    p.add_argument("--org-map", dest="org_map_path", help="JSON activity-to-org map")
    p.add_argument("--iid-column", dest="iid_column")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {
        "n_cases": args.n_cases,
        "seed": args.seed,
        "seg_size": args.seg_size,
        "n_orgs": args.n_orgs,
        "loop_iterations": args.loop_iterations,
        "algorithm": args.algorithm,
        "incremental": None if args.mode is None else args.mode == "incremental",
        "log_path": args.log_path,
        "org_map_path": args.org_map_path,
        "iid_column": args.iid_column,
    }
    try:
        cfg = ExperimentConfig.from_json_file(args.config) if args.config else ExperimentConfig()
    except (OSError, ValueError) as exc:
        _usage_error(args, "--config %s: %s" % (args.config, exc))
    try:
        return cfg.with_overrides(**overrides)
    except ValueError as exc:
        _usage_error(args, exc)


def _cmd_generate(args: argparse.Namespace) -> int:
    try:  # unset flags keep the config's defaults; counts are checked where a session's are
        cfg = ExperimentConfig().with_overrides(
            n_cases=args.cases, seed=args.seed, n_orgs=args.orgs, loop_iterations=args.loop
        )
    except ValueError as exc:
        _usage_error(args, exc)
    log = generate_scenario_log(
        cfg.n_cases, cfg.seed, loop_iterations=cfg.loop_iterations, org_map=org_map_for(cfg.n_orgs)
    )
    save_csv(log, args.out)
    lengths = Counter(ev.iid for ev in log)
    sizes = sorted(lengths.values())
    print(
        "wrote %s: %d events, %d cases, %d activities, events/case min %d max %d mean %.2f"
        % (
            args.out,
            len(log),
            len(lengths),
            len(log.activity_set()),
            sizes[0],
            sizes[-1],
            sum(sizes) / len(sizes),
        )
    )
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    parts = _load_inputs(
        ExperimentConfig(log_path=args.log, org_map_path=args.org_map, iid_column=args.iid_column)
    )
    # Each org's partition goes to <out-dir>/<org>.csv, so no name may leave it.
    unsafe = [o for o in sorted(parts) if o in ("", "..") or "\0" in o or Path(o).name != o]
    if unsafe:
        names = ", ".join(map(repr, unsafe))
        _usage_error(args, "%s: org names must be plain file names, not %s" % (args.org_map, names))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for org, partition in sorted(parts.items()):
        save_csv(partition, out_dir / ("%s.csv" % org))
        print("%s: %d events, %d cases" % (org, len(partition), len(iid_set(partition))))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    result = run_experiment(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(result.metrics, out_dir / "metrics.csv")
    write_transcript(result.transcript, out_dir / "transcript.jsonl")
    _done(result)
    out_name = "model.pnml" if cfg.algorithm == "heuristics" else "fitness.json"
    (out_dir / out_name).write_bytes(result.output)
    print(
        "session done: %d messages, peak %d bytes, %d yields, output %s"
        % (
            result.metrics.message_count,
            result.metrics.peak_bytes,
            result.metrics.yield_count,
            out_dir / out_name,
        )
    )
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    defaults = {
        "events": [2, 4, 6, 8, 10, 12, 14, 16],
        "cases": [2 ** x for x in range(7, 14)],
        "orgs": list(range(1, 9)),
        "segsize": [50_000, 100_000, 500_000, 1_000_000, 5_000_000],
    }
    values = defaults[args.dimension]
    if args.values is not None:
        try:
            values = [int(v) for v in args.values.split(",")]
        except ValueError:
            _usage_error(args, "--values takes comma-separated integers, not %r" % args.values)
    try:
        rows, fits = scale_run(cfg, args.dimension, values)
    except ValueError as exc:  # a value out of range, or too few points to fit
        _usage_error(args, exc)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(rows[0]))
        writer.writerows(row.values() for row in rows)
    doc = {name: fit.to_dict() for name, fit in fits.items()}
    out.with_suffix(".stats.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print("wrote %s" % out)
    for name, fit in fits.items():
        print(
            "%s: r2_linear=%.4f r2_log=%.4f slope=%.4f"
            % (name, fit.r2_linear, fit.r2_log, fit.slope)
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    try:
        with Path(args.csv).open(newline="") as fh:
            reader = csv.DictReader(fh, restval="")
            missing = [c for c in (args.x, args.y) if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError("no column %s" % ", ".join(repr(c) for c in missing))
            points = [(float(row[args.x]), float(row[args.y])) for row in reader]
        result = fit_stats([x for x, _ in points], [y for _, y in points])
    except (OSError, ValueError) as exc:  # DegenerateInput is a ValueError
        _usage_error(args, "%s: %s" % (args.csv, exc))
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_verify_convergence(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    # The reference is the merge of the partitions the protocol mines: the
    # split relabels events with their org, which can reorder timestamp ties.
    partitions = _load_inputs(cfg)
    log = merge_all(partitions.values())
    failures = 0
    for algorithm in ALGORITHMS:
        direct = standalone_mining(log, algorithm)
        session = _run_session(cfg.with_overrides(algorithm=algorithm), partitions)
        via_protocol = _done(session).output
        ok = direct == via_protocol
        failures += 0 if ok else 1
        print("%s: %s (%d bytes)" % (algorithm, "MATCH" if ok else "MISMATCH", len(direct)))
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enclavemine",
        description="secrecy-preserving process mining over sealed event-log segments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic scenario log")
    p.add_argument("--cases", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--loop", type=int)
    p.add_argument("--orgs", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("split", help="partition a log per organization")
    p.add_argument("--log", required=True)
    p.add_argument("--org-map", required=True)
    p.add_argument("--iid-column", default="case")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("run", help="run one protocol session")
    _add_config_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("scale", help="scaling sweep with linear/log fits")
    p.add_argument("dimension", choices=SCALE_DIMENSIONS)
    _add_config_flags(p)
    p.add_argument("--values", help="comma-separated sweep values")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("stats", help="fit linear/log models to CSV columns")
    p.add_argument("--csv", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "verify-convergence", help="check protocol output equals standalone mining"
    )
    _add_config_flags(p)
    p.set_defaults(func=_cmd_verify_convergence)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LogIoError as exc:
        _usage_error(args, exc)
    except SessionFailed as exc:
        print(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
