"""Event log core model: events, canonically ordered logs, and safe merging.

An event log is a totally ordered set of events. The order is the canonical
order: primary key is the timestamp (integer milliseconds), ties broken by
(provisioner_id, event_id). Two events compare equal only when they are the
same event (same event_id); a log never contains two events with the same id.

An :class:`Event` is a plain record, checked where it enters the program:
the scenario generator and the file loaders (:mod:`.logio`) build valid
events, and the wire decoder rejects any other. A log checks itself, since
merges join events of different provisioners.

Cases and partitions are plain :class:`EventLog` values with extra shape:
a case holds events of a single instance id (iid), a partition holds events
of a single provisioner. ``merge`` is the safe set union of two logs with
disjoint event ids; it is associative and commutative with the empty log as
identity, so partitions can be folded back together in any order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, count, islice
from operator import attrgetter, ge
from typing import Dict, FrozenSet, Iterable, Iterator, NamedTuple, Sequence, Tuple

__all__ = [
    "Event",
    "EventLog",
    "ModelError",
    "DuplicateEvent",
    "canonical_key",
    "check_events",
    "check_unique_ids",
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


class Event(NamedTuple):
    """A single recorded activity execution.

    ``timestamp`` is a non-negative int of milliseconds and ``extras`` a
    tuple of (key, value) string pairs sorted by key, so events stay
    hashable and their encoding is canonical. Producers guarantee both.
    """

    event_id: str
    iid: str
    activity: str
    timestamp: int
    provisioner_id: str
    extras: Tuple[Tuple[str, str], ...] = ()


# Total-order key of an event: timestamp first, ties by (provisioner_id,
# event_id). An attrgetter builds the same tuple as a function would, in C.
canonical_key = attrgetter("timestamp", "provisioner_id", "event_id")
_event_id = attrgetter("event_id")
_timestamp = attrgetter("timestamp")


def check_events(events: Sequence[Event]) -> None:
    """Raise unless ``events`` form a log: canonical order, unique ids.

    Raises :class:`ModelError` naming the first adjacent pair out of order,
    else :class:`DuplicateEvent`. The order check reads timestamps first:
    only a pair whose timestamps do not strictly increase can be out of
    order, so whole canonical keys are compared for those pairs alone. The
    scan for them and the id check run in C.
    """
    stamps = list(map(_timestamp, events))
    for i in compress(count(1), map(ge, stamps, islice(stamps, 1, None))):
        if canonical_key(events[i - 1]) > canonical_key(events[i]):
            raise ModelError(
                "events out of canonical order: %s after %s"
                % (events[i].event_id, events[i - 1].event_id)
            )
    check_unique_ids(events)


def check_unique_ids(events: Sequence[Event]) -> None:
    """Raise :class:`DuplicateEvent` unless no two events share an id."""
    if len(set(map(_event_id, events))) != len(events):
        counts = Counter(map(_event_id, events))
        raise DuplicateEvent(event_id for event_id, n in counts.items() if n > 1)


@dataclass(frozen=True)
class EventLog:
    """An immutable, canonically sorted event log with unique event ids."""

    events: Tuple[Event, ...] = ()

    def __post_init__(self) -> None:
        check_events(self.events)

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

    def is_case(self) -> bool:
        """True when all events share one iid (vacuously true when empty)."""
        return len({ev.iid for ev in self.events}) <= 1

    def is_partition(self) -> bool:
        """True when all events share one provisioner (true when empty)."""
        return len({ev.provisioner_id for ev in self.events}) <= 1


def log_from_events(events: Iterable[Event]) -> EventLog:
    """Build a log from events in any order; sorts and validates uniqueness."""
    return EventLog(tuple(sorted(events, key=canonical_key)))


def merge(a: EventLog, b: EventLog) -> EventLog:
    """Safe merge of two logs: ordered union of disjoint event sets.

    Sorts the concatenation of the two already sorted logs under the
    canonical key; the sort finds the two runs and merges them in linear
    time. Raises :class:`DuplicateEvent` when the logs share any event_id.
    The operation is associative and commutative, with the empty log as
    identity.
    """
    return EventLog(tuple(sorted(a.events + b.events, key=canonical_key)))


def merge_all(logs: Iterable[EventLog]) -> EventLog:
    """Ordered union of any number of logs (empty input gives the empty log).

    Sorts the concatenation of the already sorted logs under the canonical
    key; the sort finds the sorted runs and merges them, so k logs of n
    events in total cost about n log k comparisons rather than n log n.
    Raises :class:`DuplicateEvent` like :func:`merge`.
    """
    events = chain.from_iterable(lg.events for lg in logs)
    return EventLog(tuple(sorted(events, key=canonical_key)))


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
