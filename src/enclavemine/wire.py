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
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from .model import Event, EventLog, log_from_events

__all__ = [
    "WIRE_VERSION",
    "EMPTY_LOG_SIZE",
    "WireError",
    "TruncatedPayload",
    "UnsupportedVersion",
    "event_size",
    "encode_log",
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


def _pack_str(out: List[bytes], s: str) -> None:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WireError("string field exceeds 65535 encoded bytes")
    out.append(struct.pack(">H", len(raw)))
    out.append(raw)


def _encode_event(out: List[bytes], ev: Event) -> None:
    out.append(struct.pack(">Q", ev.timestamp))
    _pack_str(out, ev.event_id)
    _pack_str(out, ev.iid)
    _pack_str(out, ev.activity)
    _pack_str(out, ev.provisioner_id)
    if len(ev.extras) > 0xFFFF:
        raise WireError("too many extras")
    out.append(struct.pack(">H", len(ev.extras)))
    for key, value in ev.extras:
        _pack_str(out, key)
        _pack_str(out, value)


def event_size(ev: Event) -> int:
    """Bytes :func:`encode_log` writes for one event, by arithmetic.

    Does not check the u16 limits; encoding a field over them raises
    :class:`WireError`.
    """
    size = (
        EVENT_FIXED_SIZE
        + len(ev.event_id.encode("utf-8"))
        + len(ev.iid.encode("utf-8"))
        + len(ev.activity.encode("utf-8"))
        + len(ev.provisioner_id.encode("utf-8"))
    )
    for key, value in ev.extras:
        size += EXTRA_FIXED_SIZE + len(key.encode("utf-8")) + len(value.encode("utf-8"))
    return size


def encode_log(log: EventLog) -> bytes:
    out: List[bytes] = [struct.pack(">HI", WIRE_VERSION, len(log.events))]
    for ev in log.events:
        _encode_event(out, ev)
    return b"".join(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedPayload(
                "need %d bytes at offset %d, have %d"
                % (n, self.pos, len(self.data) - self.pos)
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def string(self) -> str:
        return self.take(self.u16()).decode("utf-8")


def decode_log(data: bytes) -> EventLog:
    """Inverse of :func:`encode_log`; validates version and exact length."""
    rd = _Reader(data)
    version = rd.u16()
    if version != WIRE_VERSION:
        raise UnsupportedVersion("wire version %d, expected %d" % (version, WIRE_VERSION))
    count = rd.u32()
    events = []
    for _ in range(count):
        ts = rd.u64()
        event_id = rd.string()
        iid = rd.string()
        activity = rd.string()
        provisioner_id = rd.string()
        n_extras = rd.u16()
        extras: Tuple[Tuple[str, str], ...] = tuple(
            (rd.string(), rd.string()) for _ in range(n_extras)
        )
        events.append(
            Event(
                event_id=event_id,
                iid=iid,
                activity=activity,
                timestamp=ts,
                provisioner_id=provisioner_id,
                extras=extras,
            )
        )
    if rd.pos != len(data):
        raise WireError("trailing bytes after log payload")
    return log_from_events(events)
