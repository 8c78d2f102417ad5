"""Wire encoding: golden bytes, round trips, and malformed payloads."""

import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enclavemine.enclave import BuildManifest
from enclavemine.experiment import build_session
from enclavemine.model import EMPTY_LOG, Event, EventLog, merge
from enclavemine.protocol import CollectorSink
from enclavemine.segmenter import size_of
from enclavemine.wire import (
    EMPTY_LOG_SIZE,
    WIRE_VERSION,
    TruncatedPayload,
    UnsupportedVersion,
    WireError,
    decode_log,
    encode_log,
)

from conftest import make_random_log


def test_empty_log_golden_bytes():
    assert encode_log(EMPTY_LOG) == bytes.fromhex("000100000000")
    assert len(encode_log(EMPTY_LOG)) == EMPTY_LOG_SIZE


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


def test_trailing_garbage_rejected():
    blob = encode_log(EMPTY_LOG) + b"\x00"
    with pytest.raises(WireError):
        decode_log(blob)


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
@example(EMPTY_LOG)
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
    with pytest.raises(WireError, match="65535") as caught:
        net.run()
    assert any(entry.name == "_on_evidence_res" for entry in caught.traceback)
    assert provisioners[0].segments_sent == 0
    assert miner.accountant.peak_bytes == 0
