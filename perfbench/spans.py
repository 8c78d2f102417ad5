"""In-memory span recorder for the traced benchmark run.

The traced run replaces the module and class attributes that the session's
callers look up (``protocol.merge``, ``SecureMiner.handle``, ...) with thin
wrappers that open a span around each call, runs the session, and puts every
original attribute back. Nothing under ``src/`` is edited: the spans sit at
the boundaries between layers, as seen from the caller.

A span is ``[name, start_ns, end_ns, parent]``; ``parent`` is the index of
the enclosing span in the same recorder, or -1. The session is
single-threaded, so a stack of open spans gives each new span its parent.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict, deque
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from enclavemine import experiment, model, protocol, segmenter, transport

Span = List  # [name, start_ns, end_ns, parent]


class Recorder:
    """Keeps spans in memory plus the few values a span cannot carry."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self.encoded_bytes = 0
        self.plans: List[segmenter.SegmentPlan] = []
        self.backlog = 0
        self.max_backlog = 0
        self._sent_at: Dict[Tuple[str, str], deque] = defaultdict(deque)
        self.queue_waits_ns: List[int] = []
        self.cases_observed = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Span around a block of the benchmark's own code."""
        rec = self._enter(name)
        try:
            yield
        finally:
            self._exit(rec)

    def _enter(self, name: str) -> Span:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        rec = [name, 0, 0, parent]
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        return rec

    def _exit(self, rec: Span) -> None:
        rec[2] = perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``after(span, args, result)`` runs once it closed."""
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            rec = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(rec)
            if after is not None:
                after(rec, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks for values the spans alone do not give ---------------------

    def _after_encode(self, rec: Span, args, result: bytes) -> None:
        self.encoded_bytes += len(result)

    def _after_plan(self, rec: Span, args, plan) -> None:
        self.plans.append(plan)

    def _after_observe(self, rec: Span, args, result) -> None:
        self.cases_observed += len(model.iid_set(args[1]))

    def _after_send(self, rec: Span, args, result) -> None:
        _, sender, receiver, _ = args
        self._sent_at[(sender, receiver)].append(rec[2])
        self.backlog += 1
        self.max_backlog = max(self.max_backlog, self.backlog)

    def _after_deliver(self, rec: Span, args, record) -> None:
        # Per-link FIFO: the delivered message is the oldest one sent on its link.
        sent = self._sent_at[(record.sender, record.receiver)].popleft()
        self.queue_waits_ns.append(rec[1] - sent)
        self.backlog -= 1

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent]))
                fh.write("\n")


def targets(rec: Recorder) -> List[Tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, after-hook) for every wrapped name."""
    sinks = (experiment.HeuristicsSink, experiment.DeclareSink)
    return [
        (protocol, "segment_event_log", "segmenter.plan", rec._after_plan),
        (protocol, "size_of", "segmenter.size_of", None),
        (segmenter, "size_of", "segmenter.size_of", None),
        (protocol, "encode_log", "wire.encode", rec._after_encode),
        (segmenter, "encode_log", "wire.encode", rec._after_encode),
        (protocol, "decode_log", "wire.decode", None),
        (protocol, "extract_case", "model.extract_case", None),
        (protocol, "merge", "model.merge", None),
        (protocol, "merge_all", "model.merge_all", None),
        (model.EventLog, "__post_init__", "model.eventlog_build", None),
        (protocol, "build_evidence", "enclave.attest", None),
        (protocol, "verify_evidence", "enclave.attest", None),
        (protocol, "seal_segment", "enclave.seal", None),
        (protocol, "open_segment", "enclave.open", None),
        (protocol.Msg, "encode", "protocol.msg_codec", None),
        (protocol.Msg, "decode", "protocol.msg_codec", None),
        (protocol.SecureMiner, "handle", "protocol.miner", None),
        (protocol.Provisioner, "handle", "protocol.provisioner", None),
        (transport.InProcessNetwork, "send", "transport.send", rec._after_send),
        (transport.InProcessNetwork, "deliver_next", "transport.deliver", rec._after_deliver),
    ] + [
        (sink, attr, name, after)
        for sink in sinks
        for attr, name, after in (
            ("on_case", "mining.observe", rec._after_observe),
            ("on_log", "mining.observe", rec._after_observe),
            ("finalize_bytes", "mining.finalize", None),
        )
    ]


@contextmanager
def instrumented(rec: Recorder) -> Iterator[Recorder]:
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, name, after in targets(rec):
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(rec.wrap(name, raw.__func__, after))
            else:
                new = rec.wrap(name, raw, after)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        yield rec
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def self_times(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (the traced code is single-threaded),
    so the covered time is the sum of their durations.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def aggregate(spans: Sequence[Span]) -> Tuple[Counter, Counter, Counter]:
    """Per name: call count, busy ns and self ns.

    Busy time counts only the outermost span of a name, so a name nested in
    itself is not counted twice.
    """
    calls: Counter = Counter()
    busy: Counter = Counter()
    own: Counter = Counter()
    for (name, start, end, parent), self_ns in zip(spans, self_times(spans)):
        calls[name] += 1
        own[name] += self_ns
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            busy[name] += end - start
    return calls, busy, own


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value) at p99, or lower if p99 would have fewer than ten
    samples beyond it, but never below the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 50.0, 0.0
    idx = max(n // 2, min(int(0.99 * n), n - 11))
    return 100.0 * (idx + 1) / n, float(ordered[idx])
