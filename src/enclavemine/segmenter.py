"""Case-complete segmentation of a partition under a byte budget.

Greedy first-fit over cases in ascending lexicographic iid order. A case is
never split across segments; when the open segment's size plus the next
case's standalone size would pass the budget, the open segment is sealed and
a new one started. Sizes are bytes of the canonical wire encoding (see
``wire``), computed by arithmetic: a case's size is ``EMPTY_LOG_SIZE`` plus
its events' ``event_size``, and adding a case to the open segment adds its
size minus ``EMPTY_LOG_SIZE``, the header the two logs share. So the open
segment's size stays exact without encoding anything, and ``seg_size`` binds
to the bytes a segment occupies on the wire before encryption. The budget
check counts that shared header once more, so a planned segment is at most
``seg_size - EMPTY_LOG_SIZE`` bytes unless it holds one case that does not
fit. Planning is linear in the partition and builds no per-case log: one
pass over its events sums each case's size, the greedy rule assigns each
requested case a segment, and a second pass drops each event into its
case's segment. The partition is in canonical order, so each segment is
too, without a sort.

A single case bigger than the budget still ships, alone, in an over-budget
segment. One warning per plan counts such cases and names each of them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from .model import Event, EventLog
from .wire import EMPTY_LOG_SIZE, event_size

# Planning never encodes; the name stays bound so that the benchmark's traced
# run (perfbench/spans.py) can wrap segmenter.encode_log and count its calls.
from .wire import encode_log  # noqa: F401

__all__ = [
    "SegmenterError",
    "InvalidSegSize",
    "SegmentPlan",
    "size_of",
    "segment_event_log",
]


class SegmenterError(Exception):
    pass


class InvalidSegSize(SegmenterError):
    pass


def size_of(log: EventLog) -> int:
    """Byte size of the log's canonical wire encoding, without encoding it.

    Equals ``len(encode_log(log))`` for every log.
    """
    return EMPTY_LOG_SIZE + sum(map(event_size, log.events))


@dataclass(frozen=True)
class SegmentPlan:
    """Ordered segments."""

    segments: Tuple[EventLog, ...]


def segment_event_log(partition: EventLog, iids: Iterable[str], seg_size: int) -> SegmentPlan:
    """Plan case-complete segments for the requested iids.

    ``iids`` must all occur in the partition. Returned segments are nonempty,
    each requested case lands in exactly one segment, case order inside a
    segment is canonical, and any segment holding two or more cases fits the
    budget.
    """
    if seg_size <= 0:
        raise InvalidSegSize("seg_size must be positive, got %d" % seg_size)
    requested = sorted(set(iids))
    case_sizes: Dict[str, int] = {}
    for ev in partition.events:
        case_sizes[ev.iid] = case_sizes.get(ev.iid, EMPTY_LOG_SIZE) + event_size(ev)
    missing = [iid for iid in requested if iid not in case_sizes]
    if missing:
        raise SegmenterError("iids not in partition: %s" % ", ".join(missing))

    buckets: List[List[Event]] = []
    bucket_of: Dict[str, List[Event]] = {}
    open_size = EMPTY_LOG_SIZE
    oversized = [iid for iid in requested if case_sizes[iid] > seg_size]
    if oversized:
        warnings.warn(
            "%d case(s) exceed seg_size %d and ship alone over budget: %s"
            % (len(oversized), seg_size, ", ".join(oversized)),
            stacklevel=2,
        )
    for iid in requested:
        case_size = case_sizes[iid]
        if not buckets or open_size + case_size > seg_size:
            buckets.append([])
            open_size = EMPTY_LOG_SIZE
        bucket_of[iid] = buckets[-1]
        # Merging a case into the open segment costs its encoding minus the
        # shared envelope constant, so the running size stays exact.
        open_size += case_size - EMPTY_LOG_SIZE
    for ev in partition.events:
        bucket = bucket_of.get(ev.iid)
        if bucket is not None:
            bucket.append(ev)
    return SegmentPlan(tuple(EventLog(tuple(bucket)) for bucket in buckets))
