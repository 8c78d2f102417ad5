"""Session benchmark for enclavemine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. ``--trace 0`` times whole sessions untouched
and reports the end-to-end metrics, with wall times scaled to a reference
host speed (``hostspeed.py``); ``--trace 1`` alternates untraced and
traced sessions and reports the per-layer metrics. Every session is gated
against standalone mining of the merged log. A table goes to stdout first,
then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The run's details go to ``perfbench/out/<workload>-seed<N>-trace<T>.json``
and the traced run's spans to ``perfbench/out/<workload>-seed<N>.trace.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# (name, unit, better, bound): the bound is the share of the parent's median
# by which a metric may worsen before a change counts as a regression. Times
# are on the host clock (hostspeed.py), which takes out most of the up to 2x
# drift of a shared host's speed; what is left, and the incremental peak's
# dependence on inputs and delivery order, still needs 0.25.
END_TO_END = [
    ("session_s", "s", "lower", 0.25),
    ("first_case_s", "s", "lower", 0.25),
    ("cases_per_s", "cases/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("enclave_peak_bytes", "B", "lower", 0.25),
    ("messages", "count", "lower", 0.1),
    ("wire_bytes", "B", "lower", 0.1),
    ("rss_peak_mib", "MiB", "lower", 0.2),
]
# Printed in the table and kept in the result file, but not gated.
# enclave_mean_bytes: on whole-hm-batch it turns on where three segments land
# among 18 deliveries and swings by more than 50% between delivery orders.
# failed_share: 0 on a correct run; the result line has it as failed/attempted.
REPORTED = [("enclave_mean_bytes", "B"), ("failed_share", "ratio")]

# (name, unit, better, what it should move, on which workload)
PER_LAYER = [
    ("scenario.generate_s", "s", "lower", "setup_s, all workloads"),
    ("logio.split_s", "s", "lower", "setup_s, all workloads"),
    ("experiment.build_session_s", "s", "lower", "setup_s, all workloads"),
    ("segmenter.plan_s", "s", "lower", "session_s, first_case_s, cases_per_s; most on whole-hm-batch and bulk-hm-inc"),
    ("segmenter.segments", "count", "lower", "messages, wire_bytes"),
    ("segmenter.size_of_calls", "count", "lower", "session_s on bulk-hm-inc"),
    ("segmenter.fill_ratio", "ratio", "higher", "messages, wire_bytes on chatty-decl-inc"),
    ("wire.encode_s", "s", "lower", "session_s on bulk-hm-inc"),
    ("wire.encode_calls", "count", "lower", "session_s on bulk-hm-inc (re-encoding just to measure size)"),
    ("wire.encoded_bytes", "B", "lower", "session_s on bulk-hm-inc"),
    ("wire.decode_s", "s", "lower", "session_s on chatty-decl-inc"),
    ("wire.decode_calls", "count", "lower", "session_s on chatty-decl-inc"),
    ("model.extract_case_s", "s", "lower", "session_s on bulk-hm-inc"),
    ("model.extract_case_calls", "count", "lower", "session_s on bulk-hm-inc"),
    ("model.merge_s", "s", "lower", "session_s on bulk-hm-inc"),
    ("model.merge_calls", "count", "lower", "session_s on bulk-hm-inc"),
    ("model.merge_all_s", "s", "lower", "session_s on whole-hm-batch only"),
    ("model.eventlog_builds", "count", "lower", "session_s on bulk-hm-inc"),
    ("enclave.attest_s", "s", "lower", "first_case_s"),
    ("enclave.seal_s", "s", "lower", "session_s on chatty-decl-inc; near zero on whole-hm-batch"),
    ("enclave.open_s", "s", "lower", "session_s on chatty-decl-inc; near zero on whole-hm-batch"),
    ("enclave.seals", "count", "lower", "session_s on chatty-decl-inc"),
    ("protocol.miner_self_s", "s", "lower", "session_s"),
    ("protocol.provisioner_self_s", "s", "lower", "session_s"),
    ("protocol.msg_codec_s", "s", "lower", "session_s on chatty-decl-inc"),
    ("protocol.cases_yielded", "count", "higher", "first_case_s"),
    ("protocol.cstor_max_cases", "count", "lower", "enclave_peak_bytes on chatty-decl-inc"),
    ("transport.scheduler_self_s", "s", "lower", "session_s on chatty-decl-inc"),
    ("transport.deliveries", "count", "lower", "messages"),
    ("transport.max_backlog", "count", "lower", "enclave_peak_bytes, enclave_mean_bytes, first_case_s on chatty-decl-inc"),
    ("transport.queue_wait_p50_s", "s", "lower", "enclave_peak_bytes, enclave_mean_bytes, first_case_s on chatty-decl-inc"),
    ("transport.queue_wait_p99_s", "s", "lower", "enclave_peak_bytes, enclave_mean_bytes, first_case_s on chatty-decl-inc"),
    ("transport.queue_wait_tail_pct", "%", "higher", "reported only: the percentile queue_wait_p99_s stands for"),
    ("mining.observe_s", "s", "lower", "session_s; under 2% everywhere, so no change predicted"),
    ("mining.finalize_s", "s", "lower", "session_s; under 2% everywhere, so no change predicted"),
    ("mining.cases_observed", "count", "higher", "reported only: cases the mining sink saw"),
    ("trace.overhead_ratio", "ratio", "lower", "reported only: traced / untraced session_s"),
]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import enclavemine from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "enclavemine" / "__init__.py").is_file():
        raise SystemExit("perfbench: no enclavemine sources under %s" % SRC)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import enclavemine

    if SRC not in Path(enclavemine.__file__).resolve().parents:
        raise SystemExit("perfbench: enclavemine imported from %s" % enclavemine.__file__)


def _environment() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    try:
        crypto = version("cryptography")
    except PackageNotFoundError:
        crypto = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cryptography": crypto}


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from perfbench import sessions
    from perfbench.hostspeed import REFERENCE_S

    workload = sessions.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit("perfbench: unknown workload %r (have %s)" % (args.workload, ", ".join(sessions.WORKLOADS)))
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d" % (workload.name, args.seed)
    result = {
        "workload": workload.name,
        "config": {k: v for k, v in vars(workload).items() if k != "why"},
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **_environment(),
    }
    if args.trace:
        run = sessions.measure_traced(workload, args.seed, args.seconds)
        table = [(name, unit) for name, unit, _, _ in PER_LAYER]
        trace_path = OUT / (stem + ".trace.jsonl")
        trace_path.unlink(missing_ok=True)
        if run.first is not None:
            run.first.write_jsonl(trace_path)
        values = {name: statistics.median(m[name] for m in run.layers) for name, _ in table} if run.layers else {}
        result["layer_map"] = {name: moves for name, _, _, moves in PER_LAYER}
        result["per_pair"] = run.layers
    else:
        run = sessions.measure(workload, args.seed, args.seconds)
        table = [(name, unit) for name, unit, _, _ in END_TO_END]
        values = sessions.end_to_end(workload, run) if run.passed else {}
        result["setup_samples_s"] = [raw for raw, _ in run.setup_samples]
        result["reference_samples_s"] = run.references
        result["reference_s"] = REFERENCE_S
    result["draws"] = run.draws
    result["failed_share"] = run.failed_share
    result["sessions"] = [vars(o) for o in run.outcomes]
    result["metrics"] = values
    (OUT / ("%s-trace%d.json" % (stem, args.trace))).write_text(json.dumps(result, indent=1) + "\n")

    failures = [o.failure for o in run.outcomes if o.failure is not None]
    for failure in sorted(set(failures)):
        print("FAILED: %s" % failure)
    if not values:
        print("perfbench: no session passed the correctness gate", file=sys.stderr)
        return 1
    print("%s seed=%d sessions=%d failed=%d" % (workload.name, args.seed, len(run.outcomes), len(failures)))
    shown = dict(values, failed_share=run.failed_share)
    for name, unit in table + ([] if args.trace else REPORTED):
        print("  %-32s %16.6g %s" % (name, shown[name], unit))
    if not args.trace:
        reference = statistics.median(run.references)
        print("  host reference took %.4g s (median); times above assume %.4g s" % (reference, REFERENCE_S))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(run.outcomes),
                "failed": len(failures),
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
