"""Event log core model: events, canonically ordered logs, and safe merging.

An event log is a totally ordered set of events. The order is the canonical
order: primary key is the timestamp (integer milliseconds), ties broken by
(provisioner_id, event_id). Two events compare equal only when they are the
same event (same event_id); a log never contains two events with the same id.

Cases and partitions are plain :class:`EventLog` values with extra shape:
a case holds events of a single instance id (iid), a partition holds events
of a single provisioner. ``merge`` is the safe set union of two logs with
disjoint event ids; it is associative and commutative with the empty log as
identity, so partitions can be folded back together in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Tuple

__all__ = [
    "Event",
    "EventLog",
    "ModelError",
    "DuplicateEvent",
    "InvalidTimestamp",
    "EMPTY_LOG",
    "canonical_key",
    "log_from_events",
    "merge",
    "merge_all",
    "extract_case",
    "iid_set",
    "group_by_iid",
]


class ModelError(Exception):
    """Base error for event-log model violations."""


class DuplicateEvent(ModelError):
    """Two events with the same event_id where ids must be unique."""

    def __init__(self, event_ids: Iterable[str]):
        self.event_ids = tuple(sorted(event_ids))
        super().__init__("duplicate event ids: %s" % ", ".join(self.event_ids))


class InvalidTimestamp(ModelError):
    """Timestamp outside the representable range (negative or non-integer)."""


@dataclass(frozen=True)
class Event:
    """A single recorded activity execution.

    ``extras`` is a sorted tuple of (key, value) string pairs so events stay
    hashable and their encoding is canonical.
    """

    event_id: str
    iid: str
    activity: str
    timestamp: int
    provisioner_id: str
    extras: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.timestamp, int) or self.timestamp < 0:
            raise InvalidTimestamp(
                "timestamp must be a non-negative integer (milliseconds), got %r"
                % (self.timestamp,)
            )
        if tuple(sorted(self.extras)) != self.extras:
            object.__setattr__(self, "extras", tuple(sorted(self.extras)))

    def extras_dict(self) -> Dict[str, str]:
        return dict(self.extras)


def canonical_key(event: Event) -> Tuple[int, str, str]:
    """Total-order key: timestamp first, ties by (provisioner_id, event_id)."""
    return (event.timestamp, event.provisioner_id, event.event_id)


@dataclass(frozen=True)
class EventLog:
    """An immutable, canonically sorted event log with unique event ids."""

    events: Tuple[Event, ...] = ()

    def __post_init__(self) -> None:
        prev: Optional[Event] = None
        seen = set()
        dupes = set()
        for ev in self.events:
            if prev is not None and canonical_key(prev) > canonical_key(ev):
                raise ModelError(
                    "events out of canonical order: %s after %s"
                    % (ev.event_id, prev.event_id)
                )
            if ev.event_id in seen:
                dupes.add(ev.event_id)
            seen.add(ev.event_id)
            prev = ev
        if dupes:
            raise DuplicateEvent(dupes)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def activities(self) -> Tuple[str, ...]:
        """Activity labels in canonical event order (with repeats)."""
        return tuple(ev.activity for ev in self.events)

    def activity_set(self) -> FrozenSet[str]:
        return frozenset(ev.activity for ev in self.events)

    def event_ids(self) -> FrozenSet[str]:
        return frozenset(ev.event_id for ev in self.events)

    def is_case(self) -> bool:
        """True when all events share one iid (vacuously true when empty)."""
        return len({ev.iid for ev in self.events}) <= 1

    def is_partition(self) -> bool:
        """True when all events share one provisioner (true when empty)."""
        return len({ev.provisioner_id for ev in self.events}) <= 1


EMPTY_LOG = EventLog(())


def log_from_events(events: Iterable[Event]) -> EventLog:
    """Build a log from events in any order; sorts and validates uniqueness."""
    return EventLog(tuple(sorted(events, key=canonical_key)))


def merge(a: EventLog, b: EventLog) -> EventLog:
    """Safe merge of two logs: ordered union of disjoint event sets.

    Linear two-way merge under the canonical key. Raises
    :class:`DuplicateEvent` when the logs share any event_id. The operation
    is associative and commutative, with the empty log as identity.
    """
    common = a.event_ids() & b.event_ids()
    if common:
        raise DuplicateEvent(common)
    ea, eb = a.events, b.events
    out = []
    i = j = 0
    while i < len(ea) and j < len(eb):
        if canonical_key(ea[i]) <= canonical_key(eb[j]):
            out.append(ea[i])
            i += 1
        else:
            out.append(eb[j])
            j += 1
    out.extend(ea[i:])
    out.extend(eb[j:])
    return EventLog(tuple(out))


def merge_all(logs: Iterable[EventLog]) -> EventLog:
    """Fold ``merge`` over any number of logs (empty input gives EMPTY_LOG)."""
    import heapq

    logs = list(logs)
    if not logs:
        return EMPTY_LOG
    merged = list(heapq.merge(*(lg.events for lg in logs), key=canonical_key))
    return EventLog(tuple(merged))


def extract_case(log: EventLog, iid: str) -> EventLog:
    """Sub-log holding exactly the events of one instance id."""
    return EventLog(tuple(ev for ev in log.events if ev.iid == iid))


def iid_set(log: EventLog) -> FrozenSet[str]:
    """Set of instance ids occurring in the log."""
    return frozenset(ev.iid for ev in log.events)


def group_by_iid(log: EventLog) -> Dict[str, EventLog]:
    """Split a log into cases; each value keeps canonical event order."""
    buckets: Dict[str, list] = {}
    for ev in log.events:
        buckets.setdefault(ev.iid, []).append(ev)
    return {iid: EventLog(tuple(evs)) for iid, evs in buckets.items()}
