"""Event-log file I/O and organizational splitting.

Loaders check events from files: :func:`parse_timestamp` takes no time
before 1970 (negative milliseconds), and every extras tuple is sorted by key.

CSV schema: header ``case,activity,timestamp`` plus optional columns. A
``timestamp`` is either integer epoch milliseconds or an ISO-8601 string
(accepted at ingestion only; logs always store milliseconds). Recognized
optional columns: ``org`` (provisioner id) and ``event_id``; anything else
lands in the event's extras, so save/load round-trips losslessly. The case
column may carry a different label per organization (``iid_column``) on
load; ``save_csv`` always writes a ``case`` column. A row or XES event
without an org takes the file's stem as its org.

The XES reader covers the subset needed for public logs: trace-level
``concept:name`` as the iid, event-level ``concept:name`` and
``time:timestamp``; remaining event string attributes become extras.
"""

from __future__ import annotations

import csv
import xml.etree.ElementTree as ET
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Mapping, Set

from .model import Event, EventLog, log_from_events

__all__ = [
    "LogIoError",
    "MissingAttribute",
    "UnparsableTimestamp",
    "MissingOrg",
    "parse_timestamp",
    "load_csv",
    "save_csv",
    "load_xes",
    "load_log",
    "split_log",
]


class LogIoError(Exception):
    pass


class MissingAttribute(LogIoError):
    pass


class UnparsableTimestamp(LogIoError):
    pass


class MissingOrg(LogIoError):
    pass


_RESERVED_COLUMNS = ("activity", "timestamp", "org", "event_id")


def parse_timestamp(value: str) -> int:
    """Epoch milliseconds from an integer string or ISO-8601 timestamp; a
    time before 1970 raises :class:`UnparsableTimestamp` like garbage does."""
    text = value.strip()
    if not text:
        raise UnparsableTimestamp("empty timestamp")
    try:
        millis = int(text)
    except ValueError:
        iso = text[:-1] + "+00:00" if text.endswith("Z") else text
        try:
            dt = datetime.fromisoformat(iso)
        except ValueError as exc:
            raise UnparsableTimestamp("unparsable timestamp %r" % value) from exc
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        millis = int(dt.timestamp() * 1000)
    if millis < 0:
        raise UnparsableTimestamp("timestamp %r is before 1970" % value)
    return millis


def load_csv(path, *, iid_column: str = "case") -> EventLog:
    path = Path(path)
    default_org = path.stem
    events: List[Event] = []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return EventLog(())
        for name in (iid_column, "activity", "timestamp"):
            if name not in reader.fieldnames:
                raise MissingAttribute("no column %r" % name)
        extra_cols = [
            c for c in reader.fieldnames if c not in _RESERVED_COLUMNS and c != iid_column
        ]
        for row_no, row in enumerate(reader):
            if None in (row[iid_column], row["activity"], row["timestamp"]):
                raise MissingAttribute("line %d has fewer fields than the header" % reader.line_num)
            iid = row[iid_column]
            event_id = row.get("event_id") or "%s-r%06d" % (default_org, row_no)
            provisioner = row.get("org") or default_org
            extras = tuple(
                sorted((c, row[c]) for c in extra_cols if row.get(c) not in (None, ""))
            )
            events.append(
                Event(
                    event_id=event_id,
                    iid=iid,
                    activity=row["activity"],
                    timestamp=parse_timestamp(row["timestamp"]),
                    provisioner_id=provisioner,
                    extras=extras,
                )
            )
    return log_from_events(events)


def save_csv(log: EventLog, path) -> None:
    extra_keys = sorted({k for ev in log for k, _ in ev.extras})
    header = ["case", "activity", "timestamp", "org", "event_id"] + extra_keys
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for ev in log:
            extras = dict(ev.extras)
            writer.writerow(
                [ev.iid, ev.activity, str(ev.timestamp), ev.provisioner_id, ev.event_id]
                + [extras.get(k, "") for k in extra_keys]
            )


def _xes_attrs(elem) -> Dict[str, str]:
    out = {}
    for child in elem:
        tag = child.tag.rsplit("}", 1)[-1]
        if tag in ("string", "date", "int", "float", "boolean", "id"):
            key = child.get("key")
            if key is not None:
                out[key] = child.get("value", "")
    return out


def load_xes(path, *, iid_attribute: str = "concept:name") -> EventLog:
    path = Path(path)
    default_org = path.stem
    try:
        root = ET.parse(str(path)).getroot()
    except ET.ParseError as exc:
        raise LogIoError("not well-formed XML: %s" % exc) from exc
    events: List[Event] = []
    counter = 0
    for trace in root:
        if trace.tag.rsplit("}", 1)[-1] != "trace":
            continue
        trace_attrs = _xes_attrs(trace)
        iid = trace_attrs.get(iid_attribute)
        if iid is None:
            raise MissingAttribute("trace without %r" % iid_attribute)
        for ev_elem in trace:
            if ev_elem.tag.rsplit("}", 1)[-1] != "event":
                continue
            attrs = _xes_attrs(ev_elem)
            if "concept:name" not in attrs:
                raise MissingAttribute("event without concept:name")
            if "time:timestamp" not in attrs:
                raise MissingAttribute("event without time:timestamp")
            extras = tuple(
                sorted(
                    (k, v)
                    for k, v in attrs.items()
                    if k not in ("concept:name", "time:timestamp")
                )
            )
            events.append(
                Event(
                    event_id="%s-x%06d" % (default_org, counter),
                    iid=iid,
                    activity=attrs["concept:name"],
                    timestamp=parse_timestamp(attrs["time:timestamp"]),
                    provisioner_id=attrs.get("org:group", default_org),
                    extras=extras,
                )
            )
            counter += 1
    return log_from_events(events)


def load_log(path, *, iid_column: str = "case") -> EventLog:
    """Load an XES file by its ``.xes`` suffix, anything else as CSV."""
    path = Path(path)
    if path.suffix.lower() == ".xes":
        return load_xes(path, iid_attribute=iid_column if iid_column != "case" else "concept:name")
    return load_csv(path, iid_column=iid_column)


def split_log(log: EventLog, org_map: Mapping[str, str]) -> Dict[str, EventLog]:
    """Partition a log by the organization performing each activity.

    Every activity in the log must be mapped. Events are relabeled with the
    mapped org as their provisioner id (ids and everything else preserved),
    so merging the partitions back gives the input exactly whenever the
    input's provisioner ids already agree with the map.

    A partition with no relabeled event is a subsequence of the canonical
    input, so it is canonical already and is not re-sorted. Relabeling
    changes ``provisioner_id``, part of the sort key, so it can reorder
    events that share a timestamp; a partition with a relabeled event is
    sorted again.
    """
    unmapped = sorted(set(log.activities()) - set(org_map))
    if unmapped:
        raise MissingOrg("activities without an org: %s" % ", ".join(unmapped))
    buckets: Dict[str, List[Event]] = {}
    relabeled: Set[str] = set()
    for ev in log:
        org = org_map[ev.activity]
        if ev.provisioner_id != org:
            ev = Event(ev.event_id, ev.iid, ev.activity, ev.timestamp, org, ev.extras)
            relabeled.add(org)
        buckets.setdefault(org, []).append(ev)
    return {
        org: log_from_events(evs) if org in relabeled else EventLog(tuple(evs))
        for org, evs in sorted(buckets.items())
    }
