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

Every log built from unordered events goes through one sort, in
:func:`log_from_events`, :func:`merge` and :func:`merge_all`: it sorts on
the integer timestamp alone, which CPython's ``list.sort`` compares without
building a key tuple per event, and lets the log's own check accept the
result. Only when that check finds two events with one timestamp out of
canonical order are the runs of tied events, and nothing else, re-sorted
under the whole canonical key before the log is built again. The result and
every error are those of one sort under the whole key. The gain rests on
timestamps being mostly distinct: where more than about half the events
tie, the two sorts and the second check cost more than one sort under the
whole key, up to about 1.3 times as much where all of them do.

A log's own check finds a duplicate id only among its events. The protocol's
incremental mode builds one log per case and frees it, so an event id reused
in another case passes there; batch mode and ``merge_all`` over the
partitions raise ``DuplicateEvent`` for it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, count, islice
from operator import attrgetter, eq, ge
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


def _sorted_log(events: Iterable[Event]) -> EventLog:
    """The log of ``events`` in canonical order, sorted on the timestamp.

    The timestamp sort is stable, so events that share a timestamp keep
    their input order; the log's check rejects that order only when such a
    run is out of canonical order, and then each run of tied events is
    re-sorted under the whole key and the log built again. A duplicate id
    found by the first check propagates, as one sort under the whole key
    would raise it too.
    """
    ordered = sorted(events, key=_timestamp)
    try:
        return EventLog(tuple(ordered))
    except DuplicateEvent:
        raise
    except ModelError:
        pass
    stamps = list(map(_timestamp, ordered))
    start = end = 0
    for i in compress(count(1), map(eq, stamps, islice(stamps, 1, None))):
        if i != end:  # events i - 1 and i begin a new run of tied events
            ordered[start:end] = sorted(ordered[start:end], key=canonical_key)
            start = i - 1
        end = i + 1
    ordered[start:end] = sorted(ordered[start:end], key=canonical_key)
    return EventLog(tuple(ordered))


def log_from_events(events: Iterable[Event]) -> EventLog:
    """Build a log from events in any order; sorts and validates uniqueness.

    One stable sort on the timestamp; only when a run of events that tie
    on it is out of canonical order are the tied runs, and nothing else,
    sorted again (see the module docstring for the cost where most events
    tie).
    """
    return _sorted_log(events)


def merge(a: EventLog, b: EventLog) -> EventLog:
    """Safe merge of two logs: ordered union of disjoint event sets.

    Sorts the concatenation of the two already sorted logs on the
    timestamp; the sort finds the two runs and merges them in linear time,
    and tied runs are re-sorted after it only as in
    :func:`log_from_events`. Raises :class:`DuplicateEvent` when
    the logs share any event_id. The operation is associative and
    commutative, with the empty log as identity.
    """
    return _sorted_log(a.events + b.events)


def merge_all(logs: Iterable[EventLog]) -> EventLog:
    """Ordered union of any number of logs (empty input gives the empty log).

    Sorts the concatenation of the already sorted logs on the timestamp;
    the sort finds the sorted runs and merges them, so k logs of n events
    in total cost about n log k comparisons rather than n log n, and tied
    runs are re-sorted after it only as in :func:`log_from_events`. Raises
    :class:`DuplicateEvent` like :func:`merge`.
    """
    return _sorted_log(chain.from_iterable(lg.events for lg in logs))


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
