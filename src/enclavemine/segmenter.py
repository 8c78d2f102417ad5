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

A plan cuts lazily. :func:`case_positions` groups the partition by case
once, and creating a plan sizes nothing. :meth:`SegmentPlan.cut` cuts a
segment only when it is asked for: it sizes each case it takes
(``wire.encoded_size`` over the case's events) and one case beyond, which
closes the segment and tells whether it is the last. So a sender whose
credit lets out the first few segments sizes only their cases.
:attr:`SegmentPlan.positions` finishes the cut; every segment cut is kept,
so every reader sees the same cut, made once. A plan builds no log per
segment: :func:`gather` picks a segment's events out of the partition when
the segment is sent, in position order. The partition is in canonical
order, so any subsequence of it is too, without a sort of the events or a
check. :attr:`SegmentPlan.segments` views the cut as one :class:`EventLog`
per segment, for readers off the session path.

A single case bigger than the budget still ships, alone, in an over-budget
segment. One warning per plan counts such cases and names each of them; it
fires when the cut takes the partition's last case.
"""

from __future__ import annotations

import warnings
from array import array
from collections import defaultdict, deque
from functools import partial
from operator import itemgetter
from typing import DefaultDict, Deque, Dict, List, Optional, Tuple

from .model import Event, EventLog
from .wire import EMPTY_LOG_SIZE, encoded_size

# Planning never encodes; the name stays bound so that the benchmark's traced
# run (perfbench/spans.py) can wrap segmenter.encode_log and count its calls.
from .wire import encode_log  # noqa: F401

__all__ = [
    "InvalidSegSize",
    "SegmentPlan",
    "case_positions",
    "gather",
    "size_of",
    "segment_event_log",
]

# An event's iid, read in C.
_iid = itemgetter(1)


class InvalidSegSize(Exception):
    pass


def size_of(log: EventLog) -> int:
    """Byte size of the log's canonical wire encoding, without encoding it.

    Equals ``len(encode_log(log))`` for every log.
    """
    return encoded_size(log.events)


def case_positions(partition: EventLog) -> Dict[str, array]:
    """The positions of each case's events in ``partition.events``,
    ascending, per iid in ascending iid order.

    Positions are an ``array("L")``: a list would hold an int object per
    event for as long as a plan keeps them.
    """
    grouped: DefaultDict[str, array] = defaultdict(partial(array, "L"))
    for i, iid in enumerate(map(_iid, partition.events)):
        grouped[iid].append(i)
    return {iid: grouped[iid] for iid in sorted(grouped)}


def gather(partition: EventLog, positions: array) -> List[Event]:
    """The partition's events at ``positions``, in canonical order."""
    events = partition.events
    return [events[i] for i in sorted(positions)]


class SegmentPlan:
    """Ordered segments of a partition, each the positions of its events in
    ``partition.events``, case by case, cut as they are asked for."""

    def __init__(self, partition: EventLog, seg_size: int, cases: Dict[str, array]) -> None:
        self.partition = partition
        self.seg_size = seg_size
        # The cases not yet sized, in ascending iid order; a case's
        # positions leave the plan once its segment is cut.
        self._unsized: Deque[Tuple[str, array]] = deque(cases.items())
        # The sized case that closed the last segment cut: the next one's
        # first. None before the first cut and after the last.
        self._ahead: Optional[Tuple[str, array, int]] = None
        self._cut: List[array] = []
        self._oversized: List[str] = []

    def _size_next(self) -> Optional[Tuple[str, array, int]]:
        """The next case, sized, or None when every case is sized."""
        if not self._unsized:
            return None
        iid, positions = self._unsized.popleft()
        size = encoded_size(map(self.partition.events.__getitem__, positions))
        if size > self.seg_size:
            self._oversized.append(iid)
        return iid, positions, size

    def _cut_next(self) -> bool:
        """Cut one more segment; False when every case is cut."""
        case = self._ahead or self._size_next()
        if case is None:
            return False
        segment = array("L")
        open_size = EMPTY_LOG_SIZE
        while case is not None and (not segment or open_size + case[2] <= self.seg_size):
            segment += case[1]
            # Merging a case into the open segment costs its encoding minus
            # the shared envelope constant, so the running size stays exact.
            open_size += case[2] - EMPTY_LOG_SIZE
            case = self._size_next()
        self._ahead = case
        self._cut.append(segment)
        if case is None and self._oversized:
            warnings.warn(
                "%d case(s) exceed seg_size %d and ship alone over budget: %s"
                % (len(self._oversized), self.seg_size, ", ".join(self._oversized)),
                stacklevel=3,
            )
        return True

    def cut(self, index: int) -> Tuple[array, bool]:
        """Segment ``index`` (from 0), cutting it first if it is not cut
        yet, and whether it is the last; raises ``IndexError`` past the last."""
        while len(self._cut) <= index and self._cut_next():
            pass
        return self._cut[index], index == len(self._cut) - 1 and self._ahead is None

    @property
    def positions(self) -> Tuple[array, ...]:
        """Every segment, in order; finishes the cut."""
        while self._cut_next():
            pass
        return tuple(self._cut)

    @property
    def segments(self) -> Tuple[EventLog, ...]:
        """Each segment as a log; finishes the cut."""
        return tuple(EventLog(tuple(gather(self.partition, p))) for p in self.positions)


def segment_event_log(
    partition: EventLog, seg_size: int, cases: Optional[Dict[str, array]] = None
) -> SegmentPlan:
    """Plan case-complete segments for every case of the partition, and cut
    none of them yet; ``cases`` is the partition's :func:`case_positions`,
    when the caller has grouped it already.

    Planned segments are nonempty, each case lands in exactly one segment,
    case order inside a segment is canonical, and any segment holding two or
    more cases fits the budget.
    """
    if seg_size <= 0:
        raise InvalidSegSize("seg_size must be positive, got %d" % seg_size)
    return SegmentPlan(partition, seg_size, case_positions(partition) if cases is None else cases)
