"""Fault injection against the protocol's failure contract.

Each row runs a whole session over the seeded scheduler with one fault
injected: a message rewritten in flight, a corrupted plaintext, a bad input
or a tight capacity. Every row checks the same four things:

* ``net.run()`` returns normally;
* the faulting node is in phase ``aborted``, its reason the fault's class;
* an aborted miner holds no plaintext (``cstor`` empty, accountant 0);
* no provisioner sent a segment before it trusted the miner's evidence.
"""

import base64
import dataclasses
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubles import CollectorSink
from enclavemine import protocol
from enclavemine.enclave import BuildManifest
from enclavemine.experiment import build_session
from enclavemine.model import log_from_events, merge_all
from enclavemine.protocol import (
    KIND_CASES_REF_REQ,
    KIND_CASES_REF_RES,
    KIND_CASES_REQ,
    KIND_CASES_RES,
    KIND_EVIDENCE_REQ,
    KIND_EVIDENCE_RES,
    Msg,
)
from enclavemine.segmenter import size_of
from enclavemine.transport import InProcessNetwork

MANIFEST = BuildManifest(component="miner", version="t", algorithm="heuristics")


class TamperingNetwork(InProcessNetwork):
    """Queues whatever ``tamper(sender, receiver, payload)`` returns in place
    of each sent message: no payload drops it, two duplicate it."""

    def __init__(self, seed, tamper):
        super().__init__(seed)
        self.tamper = tamper

    def send(self, sender, receiver, payload):
        for forged in self.tamper(sender, receiver, payload):
            super().send(sender, receiver, forged)


def _run(partitions, *, edits=(), seal=None, seg_size=1_000_000, incremental=True,
         capacity=None, seed=0):
    """Run one session; ``edits`` are ``(kind, sender, receiver, fn)`` (None
    matches any) with ``fn(doc)`` returning the new JSON doc, raw bytes, or a
    list of these; the first edit that matches a message applies."""
    nodes = {}
    early = []

    def tamper(sender, receiver, payload):
        msg = Msg.decode(payload)
        if msg.kind == KIND_CASES_RES and "envelope" in msg.body:
            trust = nodes[sender].trust
            if trust is None or not trust.trusted:
                early.append(sender)
        for *wanted, fn in edits:
            if all(w in (None, got) for w, got in zip(wanted, (msg.kind, sender, receiver))):
                doc = json.loads(payload)
                out = fn(doc)
                out = out if isinstance(out, list) else [out]
                return [o if isinstance(o, bytes) else json.dumps(o).encode() for o in out]
        return [payload]

    net, miner, provisioners = build_session(
        partitions,
        seed=seed,
        seg_size=seg_size,
        incremental=incremental,
        sink=CollectorSink(),
        manifest=MANIFEST,
        session="s1",
        capacity=capacity,
        network=TamperingNetwork(seed, tamper),
    )
    nodes.update({p.node_id: p for p in provisioners})
    nodes[miner.node_id] = miner
    net.bootstrap()
    with mock.patch.object(protocol, "seal_segment", seal or _REAL_SEAL):
        net.run()
    return nodes, early


def _body(**changes):
    def edit(doc):
        doc["body"].update(changes)
        return doc

    return edit


def _evidence(**changes):
    def edit(doc):
        doc["body"]["evidence"].update(changes)
        return doc

    return edit


def _without(key):
    def edit(doc):
        del doc[key]
        return doc

    return edit


def _flip(data, position, mask):
    out = bytearray(data)
    out[position % len(out)] ^= mask
    return bytes(out)


def _flip_last_envelope_byte(doc):
    envelope = _flip(base64.b64decode(doc["body"]["envelope"]), -1, 0x01)
    doc["body"]["envelope"] = base64.b64encode(envelope).decode("ascii")
    return doc


def _drop_unless_last(doc):
    return doc if doc["body"].get("last") else []


def _drop_signature(doc):
    del doc["body"]["evidence"]["signature"]
    return doc


_REAL_SEAL = protocol.seal_segment


def _trailing_byte_seal(segment_bytes, *args):
    return _REAL_SEAL(segment_bytes + b"\x00", *args)


def _shared_event_id(parts):
    # Pharma carries a copy of one hospital event of case 312, same event id.
    stolen = dataclasses.replace(parts["hospital"].events[0], provisioner_id="pharma")
    return dict(parts, pharma=log_from_events([*parts["pharma"], stolen]))


def _tight_capacity(parts):
    # Streaming fits; the batch log's final copy does not (as in test_protocol).
    return size_of(merge_all(parts.values())) + size_of(parts["hospital"]) + 80


FROM_HOSPITAL = ("hospital", "miner")
TO_HOSPITAL = ("miner", "hospital")

# id, run() keyword arguments, faulting node, expected reason
FAULTS = [
    ("tampered envelope",
     dict(edits=[(KIND_CASES_RES, *FROM_HOSPITAL, _flip_last_envelope_byte)]),
     "miner", "AuthFailure"),
    ("malformed wire bytes", dict(seal=_trailing_byte_seal), "miner", "WireError"),
    ("duplicate event id across provisioners", dict(partitions=_shared_event_id),
     "miner", "DuplicateEvent"),
    ("capacity cap", dict(incremental=False, capacity=_tight_capacity),
     "miner", "CapacityExceeded"),
    ("unrequested iid",
     dict(edits=[(KIND_CASES_REF_RES, *FROM_HOSPITAL, _body(iids=["312"])),
                 (KIND_CASES_REQ, *TO_HOSPITAL, _body(iids=["312", "711"]))]),
     "miner", "UnexpectedIid"),
    ("cases_res after a completed stream",
     dict(edits=[(KIND_CASES_RES, *FROM_HOSPITAL, lambda doc: [doc, doc])]),
     "miner", "UnexpectedMessage"),
    # seg_size 300 cuts hospital's partition into two segments; the first,
    # without the end mark, is lost on the link.
    ("dropped segment",
     dict(seg_size=300, edits=[(KIND_CASES_RES, *FROM_HOSPITAL, _drop_unless_last)]),
     "miner", "IncompleteDelivery"),
    ("end mark that is not a boolean",
     dict(edits=[(KIND_CASES_RES, *FROM_HOSPITAL, _body(last="true"))]),
     "miner", "UnexpectedMessage"),
    ("cases_res with neither an envelope nor an end mark",
     dict(edits=[(KIND_CASES_RES, *FROM_HOSPITAL, lambda doc: {**doc, "body": {"last": False}})]),
     "miner", "UnexpectedMessage"),
    ("forged sender",
     dict(edits=[(KIND_CASES_REF_RES, "pharma", "miner", lambda doc: {**doc, "sender": "hospital"})]),
     "miner", "UnexpectedMessage"),
    ("seg_size 0 sent to a provisioner",
     dict(edits=[(KIND_CASES_REQ, "miner", "clinic", _body(seg_size=0))]),
     "clinic", "InvalidSegSize"),
    ("kind the role does not handle",
     dict(edits=[(KIND_CASES_REF_RES, *FROM_HOSPITAL, lambda doc: {**doc, "kind": KIND_CASES_REQ})]),
     "miner", "UnexpectedMessage"),
    ("message that is not a JSON object",
     dict(edits=[(KIND_CASES_REF_RES, *FROM_HOSPITAL, lambda doc: b"[1, 2]")]),
     "miner", "UnexpectedMessage"),
    ("message without sender",
     dict(edits=[(KIND_CASES_REF_RES, *FROM_HOSPITAL, _without("sender"))]),
     "miner", "UnexpectedMessage"),
    ("message without session",
     dict(edits=[(KIND_CASES_REF_REQ, "miner", "pharma", _without("session"))]),
     "pharma", "UnexpectedMessage"),
    ("iids that are not strings",
     dict(edits=[(KIND_CASES_REF_RES, *FROM_HOSPITAL, _body(iids=[312, 711]))]),
     "miner", "UnexpectedMessage"),
    ("deeply nested JSON",
     dict(edits=[(KIND_CASES_REF_RES, *FROM_HOSPITAL, lambda doc: b"[" * 100_000)]),
     "miner", "UnexpectedMessage"),
    ("nonce too long to sign",
     dict(edits=[(KIND_EVIDENCE_REQ, *FROM_HOSPITAL, _body(nonce="ab" * 0x10000))]),
     "miner", "UnexpectedMessage"),
    ("non-hex nonce",
     dict(edits=[(KIND_EVIDENCE_REQ, *FROM_HOSPITAL, _body(nonce="not hex"))]),
     "miner", "UnexpectedMessage"),
    ("evidence missing a key",
     dict(edits=[(KIND_EVIDENCE_RES, *TO_HOSPITAL, _drop_signature)]),
     "hospital", "UnexpectedMessage"),
    ("evidence with bad hex",
     dict(edits=[(KIND_EVIDENCE_RES, *TO_HOSPITAL, _evidence(k_pub="zz"))]),
     "hospital", "UnexpectedMessage"),
    ("evidence with a non-string identity proof",
     dict(edits=[(KIND_EVIDENCE_RES, *TO_HOSPITAL, _evidence(identity_proof=7))]),
     "hospital", "UnexpectedMessage"),
    ("envelope that is not base64",
     dict(edits=[(KIND_CASES_RES, *FROM_HOSPITAL, _body(envelope="!!"))]),
     "miner", "UnexpectedMessage"),
]


@pytest.mark.filterwarnings("ignore:case .* exceeds seg_size")
@pytest.mark.parametrize(
    "kwargs,faulty,reason", [pytest.param(*row[1:], id=row[0]) for row in FAULTS]
)
def test_fault_ends_in_a_typed_abort(three_partitions, kwargs, faulty, reason):
    kwargs = dict(kwargs)
    partitions = kwargs.pop("partitions", lambda parts: parts)(three_partitions)
    if callable(kwargs.get("capacity")):
        kwargs["capacity"] = kwargs["capacity"](partitions)
    nodes, early = _run(partitions, **kwargs)
    assert nodes[faulty].phase == "aborted"
    assert nodes[faulty].aborted_reason == reason
    assert nodes[faulty].aborted_message
    miner = nodes["miner"]
    if faulty == "miner":
        assert miner.cstor == {} and miner.csize == {}
        assert miner.accountant.current_bytes == 0
    else:
        # Nothing tells the miner that a provisioner stopped; it waits.
        assert miner.phase in ("awaiting_refs", "awaiting_cases")
    assert early == []


def test_honest_session_passes_the_same_checks(three_partitions):
    nodes, early = _run(three_partitions)
    assert all(node.phase == "done" for node in nodes.values())
    assert all(node.aborted_reason is None for node in nodes.values())
    assert early == []


# A byte changed in the plaintext can still decode into a valid segment, so
# such a session may complete; the ones that do not must name one of these.
CORRUPTION_REASONS = {
    "AuthFailure",
    "KeyUnwrapFailure",
    "WireError",
    "TruncatedPayload",
    "UnsupportedVersion",
    "ModelError",
    "DuplicateEvent",
    "UnexpectedIid",
    "IncompleteDelivery",
}


@pytest.mark.filterwarnings("ignore:case .* exceeds seg_size")
@settings(max_examples=120, deadline=None)
@given(
    sealed=st.booleans(),
    target=st.integers(0, 3),
    position=st.integers(0, 1 << 16),
    mask=st.integers(1, 255),
)
def test_corrupted_segment_ends_done_or_aborted(three_partitions, sealed, target, position, mask):
    # seg_size 300 cuts the three partitions into four segments; the
    # target-th one sealed has one byte flipped, either in its plaintext
    # before sealing or in the sealed envelope.
    count = [0]

    def corrupting_seal(segment_bytes, *args):
        hit = count[0] == target
        count[0] += 1
        if hit and not sealed:
            segment_bytes = _flip(segment_bytes, position, mask)
        envelope = _REAL_SEAL(segment_bytes, *args)
        return _flip(envelope, position, mask) if hit and sealed else envelope

    nodes, early = _run(three_partitions, seal=corrupting_seal, seg_size=300, seed=target)
    miner = nodes.pop("miner")
    assert miner.phase in ("done", "aborted")
    if miner.phase == "aborted":
        assert miner.aborted_reason in CORRUPTION_REASONS
    elif sealed and target < count[0]:
        pytest.fail("a flipped envelope byte went unnoticed")
    assert miner.cstor == {} and miner.accountant.current_bytes == 0
    assert all(p.phase == "done" for p in nodes.values())
    assert early == []


@settings(max_examples=150, deadline=None)
@given(target=st.integers(0, 17), position=st.integers(0, 1 << 16), mask=st.integers(1, 255))
def test_corrupted_control_message_never_escapes(three_partitions, target, position, mask):
    # One byte of the target-th message of the session (18 in all) flipped
    # in flight. The faulting node aborts; a peer it no longer answers may be
    # left waiting, but nothing raises out of the scheduler.
    sent = [0]

    def flip_target(doc):
        sent[0] += 1
        payload = json.dumps(doc).encode()
        return _flip(payload, position, mask) if sent[0] - 1 == target else payload

    nodes, early = _run(three_partitions, edits=[(None, None, None, flip_target)])
    miner = nodes["miner"]
    for node in nodes.values():
        assert (node.phase == "aborted") == (node.aborted_reason is not None)
    if miner.phase == "aborted":
        assert miner.cstor == {} and miner.accountant.current_bytes == 0
    assert early == []
