"""Canonical binary encoding for event logs.

This encoding is the unit of size accounting: segment budgets and the
enclave's byte accounting both count encoded bytes. They get the count by
arithmetic over the layout below (:func:`encoded_size`), never by encoding.
Layout (all integers big-endian):

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

The size model is :func:`encoded_size`, one pass over some events that sums
what each adds to their encoding. Text counts its UTF-8 bytes. ASCII
text is sized by ``len``: a string for which ``str.isascii()`` holds has one
byte per character, and CPython answers ``isascii`` from a flag, without a
scan; any other text is encoded to measure it. :func:`encode_log` takes an
:class:`~enclavemine.model.EventLog` or any sequence of events in canonical
order, such as a subsequence of a log's events, and writes each distinct
iid, activity and provisioner id with its length prefix once per call: the
memo lives as long as the call, so it holds no state between segments.

Decoding has one loop, :func:`decode_cases`, which splits a payload into
its cases and reads each case's encoded size off the decode offsets, so a
receiver needs no second pass to group or size what it got. Like the
encoder, it decodes each distinct iid, activity and provisioner id once per
call, from a memo of raw bytes to text that lives as long as the call: the
events that carry a value share one string, which is what a receiver keeps
while it stores them. The provisioner ids have a memo of their own, whose
values are the payload's distinct provisioner ids, so a receiver checks
who the events belong to without reading every event again.
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
:class:`WireError` naming the event; sizing does not check the limits.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from itertools import chain
from typing import DefaultDict, Dict, Iterable, List, Sequence, Set, Tuple

from .model import Event, EventLog, ModelError, check_events, log_from_events

__all__ = [
    "WIRE_VERSION",
    "EMPTY_LOG_SIZE",
    "WireError",
    "TruncatedPayload",
    "UnsupportedVersion",
    "encoded_size",
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
# The extras count of an event without extras, which most events are.
_NO_EXTRAS = _LEN.pack(0)


def encoded_size(events: Iterable[Event]) -> int:
    """``len(encode_log(events))``, by arithmetic, for events in any order.

    Does not check the wire limits.
    """
    size = EMPTY_LOG_SIZE
    for event_id, iid, activity, _, provisioner_id, extras in events:
        text = event_id + iid + activity + provisioner_id
        size += EVENT_FIXED_SIZE
        if extras:
            text += "".join(chain.from_iterable(extras))
            size += EXTRA_FIXED_SIZE * len(extras)
        # One byte per character is exact for ASCII text; see the module doc.
        size += len(text) if text.isascii() else len(text.encode("utf-8"))
    return size


class _Prefixed(dict):
    """Text -> its UTF-8 bytes behind their u16 length, encoded on first use."""

    def __missing__(self, text: str) -> bytes:
        raw = text.encode("utf-8")
        field = self[text] = _LEN.pack(len(raw)) + raw
        return field


def encode_log(events: Sequence[Event]) -> bytes:
    """The bytes of a log, or of a sequence of events in canonical order."""
    pack_stamp_len, pack_len = _STAMP_LEN.pack, _LEN.pack
    prefixed = _Prefixed()
    out: List[bytes] = [_VERSION.pack(WIRE_VERSION), _COUNT.pack(len(events))]
    for event_id, iid, activity, timestamp, provisioner_id, extras in events:
        try:
            raw_id = event_id.encode("utf-8")
            out += (
                pack_stamp_len(timestamp, len(raw_id)), raw_id,
                prefixed[iid], prefixed[activity], prefixed[provisioner_id],
                pack_len(len(extras)) if extras else _NO_EXTRAS,
            )
            for key, value in extras:
                key_raw, value_raw = key.encode("utf-8"), value.encode("utf-8")
                out += (pack_len(len(key_raw)), key_raw, pack_len(len(value_raw)), value_raw)
        except struct.error as exc:
            name = event_id if len(event_id) <= 40 else event_id[:40] + "..."
            raise WireError(
                "event %r exceeds a wire limit: 65535 encoded bytes per string field,"
                " 65535 extras, a u64 timestamp" % name
            ) from exc
    return b"".join(out)


def decode_cases(data: bytes) -> Tuple[Dict[str, Tuple[List[Event], int]], Set[str]]:
    """Decode a log payload straight into its cases, in one pass.

    Returns the cases and the distinct provisioner ids of the payload's
    events. The cases map, per iid in order of first appearance, to the
    case's events in canonical order and the size of the case's own
    encoding: ``EMPTY_LOG_SIZE`` plus the bytes its events span in ``data``,
    which is ``len(encode_log(case))`` because decoding never reorders
    anything.

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
    # Raw bytes -> text of the iids and activities decoded so far, and of
    # the provisioner ids, whose values are returned. They are looked up
    # inline: a ``__missing__`` hook, as the encoder uses, costs a Python
    # call per new value, which segments of a few cases pay for every case.
    text: Dict[bytes, str] = {}
    known = text.get
    provisioners: Dict[bytes, str] = {}
    known_provisioner = provisioners.get
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
            raw = data[pos:end]
            iid = known(raw)
            if iid is None:
                iid = text[raw] = raw.decode("utf-8")
            (n,) = unpack_len(data, end)
            pos = end + 2
            end = pos + n
            raw = data[pos:end]
            activity = known(raw)
            if activity is None:
                activity = text[raw] = raw.decode("utf-8")
            (n,) = unpack_len(data, end)
            pos = end + 2
            end = pos + n
            raw = data[pos:end]
            provisioner_id = known_provisioner(raw)
            if provisioner_id is None:
                provisioner_id = provisioners[raw] = raw.decode("utf-8")
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
    sized = {iid: (evs, EMPTY_LOG_SIZE + spans[iid]) for iid, evs in cases.items()}
    return sized, set(provisioners.values())


def decode_log(data: bytes) -> EventLog:
    """Inverse of :func:`encode_log`: the events of :func:`decode_cases`, as
    one log; raises what it raises."""
    cases, _ = decode_cases(data)
    return log_from_events(chain.from_iterable(events for events, _ in cases.values()))
