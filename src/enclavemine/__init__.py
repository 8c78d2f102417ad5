"""Secrecy-preserving inter-organizational process mining.

Organizations hold fragments of shared process executions. Each one streams
its partition to a central miner in sealed, case-complete segments; the
miner's (simulated) enclave attests itself, merges fragments case by case,
and runs discovery or conformance checking without any party seeing another
party's raw events.
"""

from .model import (
    Event,
    EventLog,
    EMPTY_LOG,
    DuplicateEvent,
    canonical_key,
    extract_case,
    group_by_iid,
    iid_set,
    log_from_events,
    merge,
    merge_all,
)
from .segmenter import SegmentPlan, segment_event_log, size_of
from .wire import decode_log, encode_log

__version__ = "0.1.0"

__all__ = [
    "Event",
    "EventLog",
    "EMPTY_LOG",
    "DuplicateEvent",
    "canonical_key",
    "extract_case",
    "group_by_iid",
    "iid_set",
    "log_from_events",
    "merge",
    "merge_all",
    "SegmentPlan",
    "segment_event_log",
    "size_of",
    "decode_log",
    "encode_log",
    "__version__",
]
