"""Wire encoding: golden bytes, round trips, and malformed payloads."""

import random
import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enclavemine import protocol
from enclavemine.enclave import BuildManifest
from enclavemine.experiment import build_session
from enclavemine.model import DuplicateEvent, Event, EventLog, ModelError, group_by_iid, merge
from enclavemine.segmenter import size_of
from enclavemine.wire import (
    EMPTY_LOG_SIZE,
    WIRE_VERSION,
    TruncatedPayload,
    UnsupportedVersion,
    WireError,
    decode_cases,
    decode_log,
    encode_log,
    size_cases,
)

from doubles import CollectorSink, make_random_log


def test_empty_log_golden_bytes():
    assert encode_log(EventLog()) == bytes.fromhex("000100000000")
    assert len(encode_log(EventLog())) == EMPTY_LOG_SIZE


def test_single_event_golden_bytes():
    # Assembled by hand from the documented layout, not via the encoder.
    ev = Event(
        event_id="e1",
        iid="312",
        activity="PH",
        timestamp=1657789560000,
        provisioner_id="hospital",
        extras=(("ward", "3A"),),
    )
    expected = b"".join(
        [
            struct.pack(">HI", 1, 1),
            struct.pack(">Q", 1657789560000),
            struct.pack(">H", 2),
            b"e1",
            struct.pack(">H", 3),
            b"312",
            struct.pack(">H", 2),
            b"PH",
            struct.pack(">H", 8),
            b"hospital",
            struct.pack(">H", 1),
            struct.pack(">H", 4),
            b"ward",
            struct.pack(">H", 2),
            b"3A",
        ]
    )
    assert encode_log(EventLog((ev,))) == expected


def test_multibyte_event_golden_bytes():
    # Lengths count UTF-8 bytes, not characters; extras are written sorted by key.
    ev = Event(
        event_id="\u00e91",
        iid="\u30b1",
        activity="PH",
        timestamp=7,
        provisioner_id="klinik-\u00f8",
        extras=(("ward", "3A"), ("\u043a\u043b\u044e\u0447", "\U0001f642")),
    )
    expected = b"".join(
        [
            struct.pack(">HI", 1, 1),
            struct.pack(">Q", 7),
            struct.pack(">H", 3),
            bytes.fromhex("c3a931"),
            struct.pack(">H", 3),
            bytes.fromhex("e382b1"),
            struct.pack(">H", 2),
            b"PH",
            struct.pack(">H", 9),
            b"klinik-" + bytes.fromhex("c3b8"),
            struct.pack(">H", 2),
            struct.pack(">H", 4),
            b"ward",
            struct.pack(">H", 2),
            b"3A",
            struct.pack(">H", 8),
            bytes.fromhex("d0bad0bbd18ed187"),
            struct.pack(">H", 4),
            bytes.fromhex("f09f9982"),
        ]
    )
    assert encode_log(EventLog((ev,))) == expected
    assert decode_log(expected) == EventLog((ev,))


def test_round_trip_fixture_partitions(three_partitions):
    for log in three_partitions.values():
        assert decode_log(encode_log(log)) == log


def test_round_trip_preserves_extras_order():
    ev = Event(
        event_id="x",
        iid="c",
        activity="A",
        timestamp=5,
        provisioner_id="p",
        extras=(("alpha", "1"), ("beta", "2")),
    )
    log = EventLog((ev,))
    assert decode_log(encode_log(log)).events[0].extras == ev.extras


def test_unsupported_version():
    payload = struct.pack(">HI", WIRE_VERSION + 1, 0)
    with pytest.raises(UnsupportedVersion):
        decode_log(payload)


def test_truncation_everywhere():
    log = make_random_log(random.Random(7), 3, ["p1", "p2"])
    blob = encode_log(log)
    # Every strict prefix must fail loudly; count-only prefixes lie about
    # events that never arrive.
    for cut in range(len(blob)):
        with pytest.raises(TruncatedPayload):
            decode_log(blob[:cut])


def test_truncation_inside_trailing_extras():
    # The last field is an extras value, so a cut inside it leaves no later
    # field whose read would fail; a cut inside "\u00f8" also splits a character.
    ev = Event("e1", "c1", "A", 5, "p1", extras=(("k", "v\u00f8"),))
    blob = encode_log(EventLog((ev,)))
    for cut in range(len(blob)):
        with pytest.raises(TruncatedPayload):
            decode_log(blob[:cut])


def test_trailing_garbage_rejected():
    blob = encode_log(EventLog()) + b"\x00"
    with pytest.raises(WireError):
        decode_log(blob)


def test_malformed_utf8_field_is_a_wire_error():
    blob = bytearray(encode_log(EventLog((Event("e1", "c1", "A", 5, "p1"),))))
    # Header, timestamp, then u16-prefixed "e1" and "c1": "A" starts at 24.
    assert blob[24:25] == b"A"
    blob[24] = 0xFF
    with pytest.raises(WireError) as caught:
        decode_log(bytes(blob))
    assert not isinstance(caught.value, TruncatedPayload)


def _event_bytes(timestamp, *fields, extras=()):
    out = [struct.pack(">Q", timestamp)]
    for value in fields:
        out += [struct.pack(">H", len(value)), value]
    out.append(struct.pack(">H", len(extras)))
    for pair in extras:
        for value in pair:
            out += [struct.pack(">H", len(value)), value]
    return b"".join(out)


def test_out_of_order_events_are_rejected():
    # Hand-assembled: two events of one case, the later one written first.
    first = _event_bytes(1000, b"e1", b"c1", b"A", b"p1")
    second = _event_bytes(2000, b"e2", b"c1", b"B", b"p1")
    in_order = struct.pack(">HI", 1, 2) + first + second
    assert encode_log(decode_log(in_order)) == in_order
    with pytest.raises(ModelError, match="out of canonical order"):
        decode_log(struct.pack(">HI", 1, 2) + second + first)


def test_out_of_order_extras_are_rejected():
    # Hand-assembled: Event would sort the pairs of the second payload, so
    # its log would re-encode to other bytes.
    def payload(*extras):
        return struct.pack(">HI", 1, 1) + _event_bytes(
            1000, b"e1", b"c1", b"A", b"p1", extras=extras
        )

    in_order = payload((b"a", b"2"), (b"z", b"1"))
    assert encode_log(decode_log(in_order)) == in_order
    with pytest.raises(ModelError, match="out of key order"):
        decode_log(payload((b"z", b"1"), (b"a", b"2")))


def test_size_additivity_under_merge():
    rng = random.Random(13)
    a = make_random_log(rng, 4, ["p1"], id_prefix="a")
    b = make_random_log(rng, 3, ["p2"], id_prefix="b")
    merged = merge(a, b)
    assert len(encode_log(merged)) == (
        len(encode_log(a)) + len(encode_log(b)) - EMPTY_LOG_SIZE
    )


_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=12
)


@st.composite
def _logs(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    events = []
    for i in range(n):
        events.append(
            Event(
                event_id="ev%04d" % i,
                iid=draw(st.sampled_from(["c1", "c2", "c3"])),
                activity=draw(_text),
                timestamp=draw(st.integers(min_value=0, max_value=2**40)),
                provisioner_id=draw(st.sampled_from(["p1", "p2"])),
                extras=tuple(
                    sorted(
                        draw(
                            st.dictionaries(_text, _text, max_size=3)
                        ).items()
                    )
                ),
            )
        )
    events.sort(key=lambda e: (e.timestamp, e.provisioner_id, e.event_id))
    return EventLog(tuple(events))


@settings(max_examples=150, deadline=None)
@given(_logs())
def test_round_trip_property(log):
    assert decode_log(encode_log(log)) == log


@settings(max_examples=60, deadline=None)
@given(_logs())
def test_encoding_is_canonical(log):
    # Equal logs give equal bytes; re-encoding a decode is a fixed point.
    assert encode_log(decode_log(encode_log(log))) == encode_log(log)


@settings(max_examples=150, deadline=None)
@given(_logs())
@example(EventLog())
@example(
    EventLog(
        (
            Event(
                event_id="é-1",
                iid="ケース",
                activity="Ωmega",
                timestamp=2**63 - 1,
                provisioner_id="klinik-ø",
                extras=(("", ""), ("ключ", "значение 🙂")),
            ),
        )
    )
)
def test_size_model_matches_encoding(log):
    assert size_of(log) == len(encode_log(log))


@settings(max_examples=150, deadline=None)
@given(_logs())
@example(EventLog())
def test_decode_cases_splits_and_sizes_each_case(log):
    # One pass gives what decoding, grouping and sizing each case gave.
    blob = encode_log(log)
    cases = decode_cases(blob)
    split = {iid: EventLog(tuple(events)) for iid, (events, _) in cases.items()}
    assert split == group_by_iid(decode_log(blob)) == group_by_iid(log)
    # The arithmetic size model agrees, and finds each case's events.
    sized = size_cases(log)
    assert list(sized) == list(cases)
    for iid, (events, size) in cases.items():
        assert size == len(encode_log(EventLog(tuple(events))))
        positions, sized_size = sized[iid]
        assert size == sized_size
        assert [log.events[i] for i in positions] == events


def test_duplicate_ids_across_cases_of_one_payload_are_rejected():
    # Hand-assembled: two cases whose events share an id; each case alone is
    # a valid log, so only a check across the whole payload rejects it.
    first = _event_bytes(1000, b"e1", b"c1", b"A", b"p1")
    second = _event_bytes(2000, b"e1", b"c2", b"B", b"p1")
    blob = struct.pack(">HI", 1, 2) + first + second
    for decode in (decode_cases, decode_log):
        with pytest.raises(DuplicateEvent):
            decode(blob)


def _shared_fields_log():
    activities = ("Register", "Approve", "Approve")
    return EventLog(tuple(
        Event("e%d" % k, "case-%d" % (k % 2), activities[k % 3], 1000 + k, "hospital")
        for k in range(12)
    ))


def test_decode_shares_one_string_per_distinct_field_value():
    events = [ev for evs, _ in decode_cases(encode_log(_shared_fields_log())).values() for ev in evs]
    for field in ("iid", "activity", "provisioner_id"):
        values = [getattr(ev, field) for ev in events]
        for value in set(values):
            assert len({id(v) for v in values if v == value}) == 1, (field, value)


def test_the_decode_memo_lasts_one_call():
    # A memo kept between calls would hand the second decode the first
    # one's strings.
    blob = encode_log(_shared_fields_log())
    first, second = decode_log(blob), decode_log(blob)
    assert first == second
    for a, b in zip(first, second):
        assert (a.iid, a.activity, a.provisioner_id) == (b.iid, b.activity, b.provisioner_id)
        assert a.iid is not b.iid
        assert a.activity is not b.activity
        assert a.provisioner_id is not b.provisioner_id


def test_a_later_non_utf8_field_is_reported_at_its_own_offset():
    # The first "Ab" decodes and is remembered; the second event's activity
    # differs in its last byte, which is not UTF-8.
    first = _event_bytes(1000, b"e1", b"c1", b"Ab", b"p1")
    second = _event_bytes(2000, b"e2", b"c1", b"A\xff", b"p1")
    blob = struct.pack(">HI", 1, 2) + first + second
    offset = EMPTY_LOG_SIZE + len(first) + 8 + (2 + 2) + (2 + 2) + 2
    assert blob[offset : offset + 2] == b"A\xff"
    for decode in (decode_cases, decode_log):
        with pytest.raises(WireError) as caught:
            decode(blob)
        assert type(caught.value) is WireError
        assert str(caught.value) == "string field at offset %d is not UTF-8" % offset


@st.composite
def _malformed_payloads(draw):
    blob = bytearray(encode_log(draw(_logs())))
    how = draw(st.sampled_from(["flip", "truncate", "append"]))
    if how == "flip":
        blob[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
    elif how == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)) :]
    else:
        blob += draw(st.binary(min_size=1, max_size=8))
    return bytes(blob)


@settings(max_examples=300, deadline=None)
@given(_malformed_payloads())
def test_malformed_payload_raises_only_typed_errors(blob):
    # A corrupted payload may still decode to some log, which then encodes
    # to the same bytes; anything else it raises must be one of the model's
    # or the wire's own errors.
    try:
        log = decode_log(blob)
    except (WireError, ModelError):
        return
    assert isinstance(log, EventLog)
    assert encode_log(log) == blob


@settings(max_examples=300, deadline=None)
@given(_malformed_payloads())
def test_decode_cases_raises_what_decode_log_raises(blob):
    def outcome(decode):
        try:
            decode(blob)
        except (WireError, ModelError) as exc:
            return type(exc)
        return None

    assert outcome(decode_cases) is outcome(decode_log)


@pytest.mark.parametrize(
    "event",
    [
        Event("e1", "c1", "x" * 0x10000, 5, "p1"),
        Event("e1", "c1", "A", 5, "p1", extras=tuple(("k%05d" % i, "") for i in range(0x10000))),
        Event("e1", "c1", "A", 2**64, "p1"),
        Event("e1", "c1", "A", -1, "p1"),
        Event("e1", "c" * 0x10000, "A", 5, "p1"),
        Event("e1", "c1", "A", 5, "p" * 0x10000),
        # 32,768 characters, but 65,536 bytes in UTF-8.
        Event("e1", "c1", "ø" * 0x8000, 5, "p1"),
    ],
    ids=[
        "string", "extras", "timestamp", "negative timestamp", "iid", "provisioner id",
        "multibyte activity",
    ],
)
def test_encode_rejects_fields_over_wire_limits(event):
    # The encoder writes each distinct iid, activity and provisioner id once
    # per call; the rows for those fields pin that their length prefix counts
    # UTF-8 bytes, not characters, and that the error names the event.
    with pytest.raises(WireError, match="event 'e1' exceeds a wire limit"):
        encode_log(EventLog((event,)))


def test_oversized_string_field_fails_at_seal_time():
    # Planning sizes by arithmetic and accepts the case; encoding it for
    # sealing enforces the u16 length prefix, inside the provisioner's handler.
    big = Event("e1", "c1", "x" * 0x10000, 5, "p1")
    net, miner, provisioners = build_session(
        {"p1": EventLog((big,))},
        seed=0,
        seg_size=1_000_000,
        incremental=True,
        sink=CollectorSink(),
        manifest=BuildManifest(component="miner", version="t", algorithm="heuristics"),
    )
    net.bootstrap()
    appraise = mock.patch.object(protocol, "verify_evidence", wraps=protocol.verify_evidence)
    with appraise as appraisals:
        net.run()
    prov = provisioners[0]
    assert prov.phase == "aborted"
    assert prov.aborted_reason == WireError.__name__
    assert "65535" in prov.aborted_message
    # It fails after appraising the evidence, i.e. while encoding to seal.
    assert appraisals.call_count == 1
    assert [r.sender for r in net.transcript].count("p1") == 1  # its refs only
    assert miner.accountant.peak_bytes == 0
