"""Case-complete segmentation of a partition under a byte budget.

Greedy first-fit over cases in ascending lexicographic iid order. A case is
never split across segments; when the open segment's size plus the next
case's standalone size would pass the budget, the open segment is sealed and
a new one started. Sizes are bytes of the canonical wire encoding (see
``wire``), computed by arithmetic: adding a case to the open segment adds
its size minus ``EMPTY_LOG_SIZE``, the header the two logs share. So the
open segment's size stays exact without encoding anything, and ``seg_size``
binds to the bytes a segment occupies on the wire before encryption. The
budget check counts that shared header once more, so a planned segment is at
most ``seg_size - EMPTY_LOG_SIZE`` bytes unless it holds one case that does
not fit.

Planning makes one pass over the partition, ``wire.size_cases``, which sums
each case's size and records the positions of its events; the greedy rule
then gives each segment the positions of the cases it holds. A plan builds
no log per segment: :func:`gather` picks a segment's events out of the
partition when the segment is sent, in position order. The partition is in
canonical order, so any subsequence of it is too, without a sort of the
events or a check. :attr:`SegmentPlan.segments` views the same cut as one
:class:`EventLog` per segment, for readers off the session path.

A single case bigger than the budget still ships, alone, in an over-budget
segment. One warning per plan counts such cases and names each of them.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass
from typing import List, Tuple

from .model import Event, EventLog
from .wire import EMPTY_LOG_SIZE, size_cases

# Planning never encodes; the name stays bound so that the benchmark's traced
# run (perfbench/spans.py) can wrap segmenter.encode_log and count its calls.
from .wire import encode_log  # noqa: F401

__all__ = [
    "SegmenterError",
    "InvalidSegSize",
    "SegmentPlan",
    "gather",
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
    return EMPTY_LOG_SIZE + sum(size - EMPTY_LOG_SIZE for _, size in size_cases(log).values())


def gather(partition: EventLog, positions: array) -> List[Event]:
    """The partition's events at ``positions``, in canonical order."""
    events = partition.events
    return [events[i] for i in sorted(positions)]


@dataclass(frozen=True)
class SegmentPlan:
    """Ordered segments of a partition, each the positions of its events in
    ``partition.events``, case by case."""

    partition: EventLog
    positions: Tuple[array, ...]

    @property
    def segments(self) -> Tuple[EventLog, ...]:
        """Each segment as a log."""
        return tuple(EventLog(tuple(gather(self.partition, p))) for p in self.positions)


def segment_event_log(partition: EventLog, seg_size: int) -> SegmentPlan:
    """Plan case-complete segments for every case of the partition.

    Planned segments are nonempty, each case lands in exactly one segment,
    case order inside a segment is canonical, and any segment holding two or
    more cases fits the budget.
    """
    if seg_size <= 0:
        raise InvalidSegSize("seg_size must be positive, got %d" % seg_size)
    cases = size_cases(partition)
    order = sorted(cases)

    oversized = [iid for iid in order if cases[iid][1] > seg_size]
    if oversized:
        warnings.warn(
            "%d case(s) exceed seg_size %d and ship alone over budget: %s"
            % (len(oversized), seg_size, ", ".join(oversized)),
            stacklevel=2,
        )
    segments: List[array] = []
    open_size = EMPTY_LOG_SIZE
    for iid in order:
        positions, case_size = cases[iid]
        if not segments or open_size + case_size > seg_size:
            segments.append(array("L"))
            open_size = EMPTY_LOG_SIZE
        segments[-1] += positions
        # Merging a case into the open segment costs its encoding minus the
        # shared envelope constant, so the running size stays exact.
        open_size += case_size - EMPTY_LOG_SIZE
    return SegmentPlan(partition, tuple(segments))
