"""Canonical binary encoding for event logs.

This encoding is the unit of size accounting: segment budgets and the
enclave's byte accounting both count encoded bytes. They get the count by
arithmetic over the layout below (:func:`event_size`), never by encoding;
``EMPTY_LOG_SIZE + sum(event_size(ev) for ev in log)`` equals
``len(encode_log(log))`` for every log. Layout (all integers big-endian):

    u16  version (currently 1)
    u32  event count
    per event:
        u64  timestamp (ms)
        u16-length-prefixed utf8: event_id, iid, activity, provisioner_id
        u16  extras count, then per pair u16-prefixed key and value

Events are written in canonical order, extras sorted by key, so equal logs
encode to equal bytes. An empty log encodes to exactly EMPTY_LOG_SIZE bytes.
Because a log's size is the header plus its events' sizes, merging two logs
with disjoint events gives ``size(a) + size(b) - EMPTY_LOG_SIZE``.

Decoding has one loop, :func:`decode_cases`, which splits a payload into
its cases and reads each case's encoded size off the decode offsets, so a
receiver needs no second pass to group or size what it got.
:func:`decode_log` returns the same events as one log.

Error contract: :func:`decode_cases` and :func:`decode_log` take bytes from
outside the program, both run the same checks, and every malformed payload
raises the same error from both: a :class:`WireError` subclass
(:class:`TruncatedPayload` when a field runs past the end,
:class:`UnsupportedVersion` for another version, :class:`WireError` itself
for trailing bytes or a string that is not UTF-8), or the
:class:`~enclavemine.model.ModelError` of a well-formed payload whose events
do not form a log (events out of canonical order, duplicate ids, checked
across the whole payload, not per case) or whose extras pairs are out of key
order. Decoding never reorders anything, so a payload that decodes
re-encodes to its own bytes. Encoding a field over its wire limit raises
:class:`WireError`.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from itertools import chain
from typing import DefaultDict, Dict, List, Tuple

from .model import Event, EventLog, ModelError, check_events, log_from_events

__all__ = [
    "WIRE_VERSION",
    "EMPTY_LOG_SIZE",
    "WireError",
    "TruncatedPayload",
    "UnsupportedVersion",
    "event_size",
    "encode_log",
    "decode_cases",
    "decode_log",
]

WIRE_VERSION = 1
# Version header plus event count; the encoded size of the empty log.
EMPTY_LOG_SIZE = 6
# Per event: u64 timestamp, four u16 string lengths, u16 extras count.
EVENT_FIXED_SIZE = 8 + 2 * 4 + 2
# Per extras pair: the u16 lengths of key and value.
EXTRA_FIXED_SIZE = 2 * 2


class WireError(Exception):
    pass


class TruncatedPayload(WireError):
    pass


class UnsupportedVersion(WireError):
    pass


_VERSION = struct.Struct(">H")
_COUNT = struct.Struct(">I")
# An event opens with its timestamp and the length of its first string.
_STAMP_LEN = struct.Struct(">QH")
_LEN = struct.Struct(">H")


def event_size(ev: Event) -> int:
    """Bytes :func:`encode_log` writes for one event, by arithmetic.

    Does not check the wire limits; encoding a field over them raises
    :class:`WireError`.
    """
    text = ev.event_id + ev.iid + ev.activity + ev.provisioner_id
    size = EVENT_FIXED_SIZE + len(text.encode("utf-8"))
    for key, value in ev.extras:
        size += EXTRA_FIXED_SIZE + len((key + value).encode("utf-8"))
    return size


def encode_log(log: EventLog) -> bytes:
    pack_stamp_len, pack_len = _STAMP_LEN.pack, _LEN.pack
    out: List[bytes] = [_VERSION.pack(WIRE_VERSION), _COUNT.pack(len(log.events))]
    for ev in log.events:
        event_id = ev.event_id.encode("utf-8")
        iid = ev.iid.encode("utf-8")
        activity = ev.activity.encode("utf-8")
        provisioner_id = ev.provisioner_id.encode("utf-8")
        try:
            out += (
                pack_stamp_len(ev.timestamp, len(event_id)), event_id,
                pack_len(len(iid)), iid,
                pack_len(len(activity)), activity,
                pack_len(len(provisioner_id)), provisioner_id,
                pack_len(len(ev.extras)),
            )
            for key, value in ev.extras:
                key_raw, value_raw = key.encode("utf-8"), value.encode("utf-8")
                out += (pack_len(len(key_raw)), key_raw, pack_len(len(value_raw)), value_raw)
        except struct.error as exc:
            raise WireError(
                "event %r exceeds a wire limit: 65535 encoded bytes per string field,"
                " 65535 extras, a u64 timestamp" % ev.event_id
            ) from exc
    return b"".join(out)


def decode_cases(data: bytes) -> Dict[str, Tuple[List[Event], int]]:
    """Decode a log payload straight into its cases, in one pass.

    Returns, per iid in order of first appearance, the case's events in
    canonical order and the size of the case's own encoding:
    ``EMPTY_LOG_SIZE`` plus the bytes its events span in ``data``, which is
    ``len(encode_log(case))`` because decoding never reorders anything.

    Raises :class:`TruncatedPayload` when a field runs past the end,
    :class:`UnsupportedVersion` for another version, :class:`WireError`
    for trailing bytes or a string field that is not UTF-8, and
    :class:`~enclavemine.model.ModelError` when an event's extras pairs are
    out of key order or the events, across the whole payload, are out of
    canonical order or share an id.
    """
    unpack_stamp_len, unpack_len = _STAMP_LEN.unpack_from, _LEN.unpack_from
    stamp_len_size = _STAMP_LEN.size
    # Builds an Event from a tuple of its fields in C, without the Python
    # frame of the named tuple's own constructor.
    new_event = tuple.__new__
    size = len(data)
    pos = end = 0
    events: List[Event] = []
    cases: DefaultDict[str, List[Event]] = defaultdict(list)
    spans: DefaultDict[str, int] = defaultdict(int)
    try:
        (version,) = _VERSION.unpack_from(data)
        if version != WIRE_VERSION:
            raise UnsupportedVersion("wire version %d, expected %d" % (version, WIRE_VERSION))
        (count,) = _COUNT.unpack_from(data, 2)
        pos = EMPTY_LOG_SIZE
        # A string slice stops at the end of ``data``; a string that runs past
        # it leaves ``pos`` beyond the end, where the next unpack or the final
        # length check reports it. The fields are read inline because a
        # helper call per string made decoding about a third slower.
        for _ in range(count):
            start = pos
            timestamp, n = unpack_stamp_len(data, pos)
            pos += stamp_len_size
            end = pos + n
            event_id = data[pos:end].decode("utf-8")
            (n,) = unpack_len(data, end)
            pos = end + 2
            end = pos + n
            iid = data[pos:end].decode("utf-8")
            (n,) = unpack_len(data, end)
            pos = end + 2
            end = pos + n
            activity = data[pos:end].decode("utf-8")
            (n,) = unpack_len(data, end)
            pos = end + 2
            end = pos + n
            provisioner_id = data[pos:end].decode("utf-8")
            (n_extras,) = unpack_len(data, end)
            pos = end + 2
            if n_extras:
                extras = []
                for _ in range(n_extras):
                    (n,) = unpack_len(data, pos)
                    pos += 2
                    end = pos + n
                    key = data[pos:end].decode("utf-8")
                    (n,) = unpack_len(data, end)
                    pos = end + 2
                    end = pos + n
                    extras.append((key, data[pos:end].decode("utf-8")))
                    pos = end
                # The only check a received event's extras get: unsorted pairs
                # would re-encode to other bytes than they were decoded from.
                if extras != sorted(extras):
                    raise ModelError("extras of event %r out of key order" % event_id)
                extras = tuple(extras)
            else:
                extras = ()
            ev = new_event(Event, (event_id, iid, activity, timestamp, provisioner_id, extras))
            events.append(ev)
            cases[iid].append(ev)
            spans[iid] += pos - start
    except struct.error as exc:
        raise TruncatedPayload("payload of %d bytes ends inside a field" % size) from exc
    except UnicodeDecodeError as exc:
        if end > size:
            raise TruncatedPayload(
                "string field at offset %d runs past the end of %d bytes" % (pos, size)
            ) from exc
        raise WireError("string field at offset %d is not UTF-8" % pos) from exc
    if pos > size:
        raise TruncatedPayload("last string field runs past the end of %d bytes" % size)
    if pos != size:
        raise WireError("trailing bytes after log payload")
    check_events(events)
    return {iid: (evs, EMPTY_LOG_SIZE + spans[iid]) for iid, evs in cases.items()}


def decode_log(data: bytes) -> EventLog:
    """Inverse of :func:`encode_log`: the events of :func:`decode_cases`, as
    one log; raises what it raises."""
    cases = decode_cases(data).values()
    return log_from_events(chain.from_iterable(events for events, _ in cases))
