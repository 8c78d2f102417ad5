"""Case-complete segmentation of a partition under a byte budget.

Greedy first-fit over cases in ascending lexicographic iid order. A case is
never split across segments; when the open segment's size plus the next
case's standalone size would pass the budget, the open segment is sealed and
a new one started. Sizes are bytes of the canonical wire encoding (see
``wire``), computed by arithmetic: ``size_of`` adds up per-event sizes, and
adding a case to the open segment adds its size minus ``EMPTY_LOG_SIZE``,
the header the two logs share. So the open segment's size stays exact
without encoding anything, and ``seg_size`` binds to the bytes a segment
occupies on the wire before encryption. The budget check counts that shared
header once more, so a planned segment is at most ``seg_size -
EMPTY_LOG_SIZE`` bytes unless it holds one case that does not fit. Planning
is linear in the partition: one pass groups it by iid, and each segment is
sorted once, when sealed.

A single case bigger than the budget still ships, alone, in an over-budget
segment (a warning is emitted and the iid reported in the plan).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, List, Tuple

from .model import Event, EventLog, group_by_iid, log_from_events
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
    """Ordered segments plus the iids of cases that alone pass the budget."""

    segments: Tuple[EventLog, ...]
    oversized_iids: Tuple[str, ...]


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
    cases = group_by_iid(partition)
    missing = [iid for iid in requested if iid not in cases]
    if missing:
        raise SegmenterError("iids not in partition: %s" % ", ".join(missing))

    segments: List[EventLog] = []
    oversized: List[str] = []
    open_events: List[Event] = []
    open_size = EMPTY_LOG_SIZE

    def seal() -> None:
        nonlocal open_events, open_size
        if open_events:
            segments.append(log_from_events(open_events))
            open_events = []
            open_size = EMPTY_LOG_SIZE

    for iid in requested:
        case = cases[iid]
        case_size = size_of(case)
        if case_size > seg_size:
            warnings.warn(
                "case %s (%d bytes) exceeds seg_size %d; shipping alone over budget"
                % (iid, case_size, seg_size),
                stacklevel=2,
            )
            oversized.append(iid)
        if open_size + case_size > seg_size:
            seal()
        # Merging a case into the open segment costs its encoding minus the
        # shared envelope constant, so the running size stays exact.
        open_events.extend(case.events)
        open_size += case_size - EMPTY_LOG_SIZE
    seal()
    return SegmentPlan(
        segments=tuple(segments),
        oversized_iids=tuple(oversized),
    )
