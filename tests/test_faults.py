"""Fault injection against the protocol's failure contract.

Each row runs a whole session over the seeded scheduler with one fault
injected: a message rewritten, forged or lost in flight, a corrupted
plaintext, a plan out of iid order or cut over budget, a bad input or a
tight capacity. Every row checks the same five things:

* ``net.run()`` returns normally;
* every node ends ``done`` or ``aborted``;
* the faulting node is in phase ``aborted``, its reason the fault's class,
  and a miner left waiting by a provisioner's fault ends ``Stalled``;
* the miner holds no plaintext (``cstor`` empty, accountant 0) and no
  stream key;
* no provisioner sent a segment before an appraisal of the miner's
  evidence returned for it.

A batch row also checks that the sink received no case: batch mode runs
its id check and counts the merged log before it hands over the first.
"""

import dataclasses
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubles import CollectorSink
from enclavemine import protocol
from enclavemine.enclave import (
    FRAME_VERSION,
    REASON_NONCE,
    BuildManifest,
    SessionKeys,
    frame,
    new_stream_key,
    sign_stream,
    unframe,
)
from enclavemine.experiment import build_session
from enclavemine.model import log_from_events, merge_all
from enclavemine.protocol import (
    KIND_CASES_GRANT,
    KIND_CASES_REF_REQ,
    KIND_CASES_REF_RES,
    KIND_CASES_REQ,
    KIND_CASES_RES,
    Msg,
)
from enclavemine.segmenter import size_of
from enclavemine.transport import InProcessNetwork
from enclavemine.wire import decode_log, encode_log

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


def _run(partitions, *, edits=(), seal=None, plan=None, seg_size=1_000_000, incremental=True,
         capacity=None, seed=0):
    """Run one session; ``edits`` are ``(kind, sender, receiver, fn)`` (None
    matches any) with ``fn(msg)`` returning the new ``Msg``, raw bytes, or a
    list of these; the first edit that matches a message applies. A ``seal``
    that is a class keeps state: one is made per session, given its nodes.
    A ``plan`` stands in for ``segment_event_log`` at every provisioner."""
    nodes = {}
    early = []
    appraised = set()  # the nonce of every appraisal that returned

    def appraise(*args, **kwargs):
        k_pub = _REAL_VERIFY(*args, **kwargs)
        appraised.add(kwargs["expected_nonce"])
        return k_pub

    def tamper(sender, receiver, payload):
        msg = Msg.decode(payload)
        if msg.kind == KIND_CASES_RES and msg.blob and nodes[sender].nonce not in appraised:
            early.append(sender)
        for *wanted, fn in edits:
            if all(w in (None, got) for w, got in zip(wanted, (msg.kind, sender, receiver))):
                out = fn(msg)
                out = out if isinstance(out, list) else [out]
                return [o if isinstance(o, bytes) else o.encode() for o in out]
        return [payload]

    net, miner, provisioners = build_session(
        partitions,
        seed=seed,
        seg_size=seg_size,
        incremental=incremental,
        sink=CollectorSink(),
        manifest=MANIFEST,
        capacity=capacity,
        network=TamperingNetwork(seed, tamper),
    )
    nodes.update({p.node_id: p for p in provisioners})
    nodes[miner.node_id] = miner
    if isinstance(seal, type):
        seal = seal(nodes)
    net.bootstrap()
    with mock.patch.object(protocol, "seal_segment", seal or _REAL_SEAL), mock.patch.object(
        protocol, "verify_evidence", appraise
    ), mock.patch.object(protocol, "segment_event_log", plan or _REAL_PLAN):
        net.run()
    assert all(node.phase in ("done", "aborted") for node in nodes.values())
    return nodes, early


def _body(**changes):
    return lambda msg: dataclasses.replace(msg, body={**msg.body, **changes})


def _blob(fn):
    return lambda msg: dataclasses.replace(msg, blob=fn(msg.blob))


def _evidence_field(index, value):
    def edit(evidence):
        fields = unframe(evidence, 5)
        fields[index] = value
        return frame(*fields)

    return _blob(edit)


def _head(head):
    """The message framed with another JSON head, given as bytes or a
    function of the head's fields."""

    def edit(msg):
        doc = {"kind": msg.kind, "sender": msg.sender, "session": msg.session, "body": msg.body}
        return frame(head if isinstance(head, bytes) else json.dumps(head(doc)).encode(), msg.blob)

    return edit


def _without(key):
    return _head(lambda doc: {k: v for k, v in doc.items() if k != key})


def _flip(data, position, mask):
    out = bytearray(data)
    out[position % len(out)] ^= mask
    return bytes(out)


def _kept(into):
    """An edit that passes each message on and appends it to ``into``."""

    def edit(msg):
        into.append(msg)
        return msg

    return edit


def _drop(msg):
    return []


def _then_grant(credit):
    """An edit that passes the message on and sends a grant of ``credit``
    behind it on the same link, as if from the message's sender."""

    def edit(msg):
        return [msg, Msg(KIND_CASES_GRANT, msg.sender, msg.session, {"credit": credit}, b"")]

    return edit


def _drop_unless_last(msg):
    return msg if msg.body.get("last") else []


def _drop_if_last(msg):
    return [] if msg.body.get("last") else msg


_REAL_SEAL = protocol.seal_segment
_REAL_VERIFY = protocol.verify_evidence
_REAL_PLAN = protocol.segment_event_log


def _trailing_byte_seal(segment_bytes, *args):
    return _REAL_SEAL(segment_bytes + b"\x00", *args)


def _clinic_as_pharma_seal(segment_bytes, k_sym, share, proof, session, sender, *place):
    """Clinic's segments carry its events labelled with pharma's id, sealed
    under clinic's own stream key; the relabelling keeps their order."""
    if sender == "clinic":
        log = decode_log(segment_bytes)
        segment_bytes = encode_log([ev._replace(provisioner_id="pharma") for ev in log])
    return _REAL_SEAL(segment_bytes, k_sym, share, proof, session, sender, *place)


class _RekeyAfterFirstSeal:
    """A seal for one session: from a stream's second segment on, the sender
    agrees a fresh key with the session's own key and sends its share and
    proof along, as on a first segment."""

    def __init__(self, nodes):
        self.nodes = nodes

    def __call__(self, segment_bytes, k_sym, share, proof, session, sender, seg_size, index, last):
        if index:
            k_sym, share = new_stream_key(self.nodes["miner"].session_keys.k_pub)
            proof = sign_stream(self.nodes[sender].config.identity, session, share)
        envelope = _REAL_SEAL(
            segment_bytes, k_sym, share, proof, session, sender, seg_size, index, last
        )
        return frame(share, proof, unframe(envelope, 3)[2])


class _ForeignShareSeal:
    """A seal for one session: each stream's key is agreed with another
    session's key, and its share signed by the sender for this session."""

    def __init__(self, nodes):
        self.nodes = nodes
        self.keys = {}

    def __call__(self, segment_bytes, k_sym, share, proof, session, sender, *place):
        if sender not in self.keys:
            k_sym, share = new_stream_key(SessionKeys().k_pub)
            proof = sign_stream(self.nodes[sender].config.identity, session, share)
            self.keys[sender] = (k_sym, share, proof)
        return _REAL_SEAL(segment_bytes, *self.keys[sender], session, sender, *place)


def _hospital_reversed_plan(partition, seg_size, cases):
    """Hospital's plan ships its cases newest first; the others' are honest."""
    if partition.events[0].provisioner_id == "hospital":
        cases = dict(reversed(cases.items()))
    return _REAL_PLAN(partition, seg_size, cases)


def _hospital_over_budget_plan(partition, seg_size, cases):
    """Hospital's plan is cut at 50 times seg_size, in iid order, and then
    reports the agreed seg_size, which its segments are sealed with."""
    if partition.events[0].provisioner_id != "hospital":
        return _REAL_PLAN(partition, seg_size, cases)
    plan = _REAL_PLAN(partition, 50 * seg_size, cases)
    plan.positions  # finishes the cut at the larger budget
    plan.seg_size = seg_size
    return plan


def _held_back_until_last():
    """An edit that holds a stream's segments back and sends them after its
    last one, which so arrives first."""
    held = []

    def edit(msg):
        if not msg.body.get("last"):
            held.append(msg)
            return []
        out = [msg, *held]
        held.clear()
        return out

    return edit


def _shared_event_id(parts):
    # Pharma carries a copy of one hospital event of case 312, same event id.
    stolen = parts["hospital"].events[0]._replace(provisioner_id="pharma")
    return dict(parts, pharma=log_from_events([*parts["pharma"], stolen]))


def _event_id_in_another_case(parts):
    # Pharma carries a copy of hospital's first event (case 312), relabelled
    # to case 711: each case alone has unique ids, the two together do not.
    stolen = parts["hospital"].events[0]._replace(provisioner_id="pharma", iid="711")
    return dict(parts, pharma=log_from_events([*parts["pharma"], stolen]))


def _tight_capacity(parts):
    # Streaming fits; the batch cases' final copy does not (as in test_protocol).
    return size_of(merge_all(parts.values())) + size_of(parts["hospital"]) + 80


FROM_HOSPITAL = ("hospital", "miner")
TO_HOSPITAL = ("miner", "hospital")

# seg_size 30 ships every case alone over budget. Hospital's stream, cases
# 312 and 711 of 347 and 313 plaintext bytes, outruns its first credit of
# 300 with its first segment and needs one grant (to 600); pharma's (104 +
# 104) and clinic's (171) fit their first credit.
GRANTED = 30

# id, run() keyword arguments, faulting node, expected reason
FAULTS = [
    ("tampered envelope",
     dict(edits=[(KIND_CASES_RES, *FROM_HOSPITAL, _blob(lambda b: _flip(b, -1, 0x01)))]),
     "miner", "AuthFailure"),
    ("malformed wire bytes", dict(seal=_trailing_byte_seal), "miner", "WireError"),
    # The segment opens under clinic's key, so its sender is clinic, but its
    # events say they are pharma's: the miner stores none of them.
    ("events labelled with another org's id",
     dict(seal=_clinic_as_pharma_seal), "miner", "ForeignEvent"),
    # Key material rides on a stream's first envelope only: a later one
    # that carries a share and proof, even a fresh share correctly signed
    # for this session (a mid-stream re-key), fails before any cipher.
    ("key fields on a later segment",
     dict(seal=_RekeyAfterFirstSeal, seg_size=300),
     "miner", "AuthFailure"),
    # The sender's proof holds, but the share agrees a key with another
    # session's key, so the miner derives another key and the tag fails.
    ("share for another session", dict(seal=_ForeignShareSeal), "miner", "AuthFailure"),
    ("duplicate event id across provisioners", dict(partitions=_shared_event_id),
     "miner", "DuplicateEvent"),
    # Batch mode checks the ids of all stored fragments when the last
    # stream ends, so the same duplicate surfaces there.
    ("duplicate event id across provisioners, batch",
     dict(partitions=_shared_event_id, incremental=False),
     "miner", "DuplicateEvent"),
    # Batch mode checks the ids of all cases together before any reaches
    # the sink. (Incremental mode keeps no ids of mined cases and accepts
    # this input.)
    ("event id reused in another case, batch",
     dict(partitions=_event_id_in_another_case, incremental=False),
     "miner", "DuplicateEvent"),
    ("capacity cap", dict(incremental=False, capacity=_tight_capacity),
     "miner", "CapacityExceeded"),
    # Refs rewritten by the host: hospital plans its whole partition whatever
    # they say, so the miner meets a case it was not told of, or a stream
    # that ends owing one.
    ("unrequested iid",
     dict(edits=[(KIND_CASES_REF_RES, *FROM_HOSPITAL, _body(iids=["312"]))]),
     "miner", "UnexpectedIid"),
    ("refs naming a case the provisioner does not hold",
     dict(edits=[(KIND_CASES_REF_RES, *FROM_HOSPITAL, _body(iids=["312", "711", "999"]))]),
     "miner", "IncompleteDelivery"),
    # seg_size 300 ships each of hospital's two cases alone. Its first
    # segment holds 711 where the stream owes 312 first: the peak bound
    # assumes ascending iid order, so the miner refuses it in either mode.
    ("hospital's plan reversed",
     dict(seg_size=300, plan=_hospital_reversed_plan), "miner", "UnexpectedIid"),
    ("hospital's plan reversed, batch",
     dict(seg_size=300, plan=_hospital_reversed_plan, incremental=False),
     "miner", "UnexpectedIid"),
    # Both of hospital's cases in one segment of about 650 bytes, sealed
    # under the agreed seg_size of 300, so it opens: the miner refuses a
    # segment of two or more cases over the segmenter's budget.
    ("hospital cuts over budget",
     dict(seg_size=300, plan=_hospital_over_budget_plan), "miner", "InvalidSegSize"),
    ("cases_res after a completed stream",
     dict(edits=[(KIND_CASES_RES, *FROM_HOSPITAL, lambda msg: [msg, msg])]),
     "miner", "UnexpectedMessage"),
    # seg_size 300 cuts hospital's partition into two segments; the first,
    # without the end mark, is lost on the link. The second then arrives
    # where the first was due, without the key share and sender proof that
    # only a first segment carries, and fails the proof check.
    ("dropped segment",
     dict(seg_size=300, edits=[(KIND_CASES_RES, *FROM_HOSPITAL, _drop_unless_last)]),
     "miner", "AuthFailure"),
    # The same cut: the first segment arrives twice, the copy where the
    # second was due.
    ("replayed segment",
     dict(seg_size=300, edits=[(KIND_CASES_RES, *FROM_HOSPITAL,
                                lambda msg: msg if msg.body.get("last") else [msg, msg])]),
     "miner", "AuthFailure"),
    ("reordered segments",
     dict(seg_size=300, edits=[(KIND_CASES_RES, *FROM_HOSPITAL, _held_back_until_last())]),
     "miner", "AuthFailure"),
    # The end mark rides in the clear but is authenticated: setting it on
    # the first segment, or taking it off the last, fails the tag.
    ("end mark added to a mid-stream segment",
     dict(seg_size=300, edits=[(KIND_CASES_RES, *FROM_HOSPITAL, _body(last=True))]),
     "miner", "AuthFailure"),
    ("end mark taken off the last segment",
     dict(seg_size=300, edits=[(KIND_CASES_RES, *FROM_HOSPITAL,
                                lambda msg: dataclasses.replace(msg, body={}))]),
     "miner", "AuthFailure"),
    # The same cut, but the segment with the end mark is the one lost: the
    # miner is left waiting for hospital until the session goes quiet.
    ("lost end mark",
     dict(seg_size=300, edits=[(KIND_CASES_RES, *FROM_HOSPITAL, _drop_if_last)]),
     "miner", "Stalled"),
    ("end mark that is not a boolean",
     dict(edits=[(KIND_CASES_RES, *FROM_HOSPITAL, _body(last="true"))]),
     "miner", "UnexpectedMessage"),
    ("cases_res with neither an envelope nor an end mark",
     dict(edits=[(KIND_CASES_RES, *FROM_HOSPITAL,
                  lambda msg: dataclasses.replace(msg, body={"last": False}, blob=b""))]),
     "miner", "UnexpectedMessage"),
    ("cases_grant before the case request",
     dict(seg_size=GRANTED, edits=[(KIND_CASES_REF_REQ, *TO_HOSPITAL, _then_grant(600))]),
     "hospital", "UnexpectedMessage"),
    ("cases_grant that does not raise the credit",
     dict(seg_size=GRANTED, edits=[(KIND_CASES_GRANT, *TO_HOSPITAL, _body(credit=300))]),
     "hospital", "UnexpectedMessage"),
    ("cases_grant with a forged sender",
     dict(seg_size=GRANTED, edits=[(KIND_CASES_GRANT, *TO_HOSPITAL,
                                    lambda msg: dataclasses.replace(msg, sender="pharma"))]),
     "hospital", "UnexpectedMessage"),
    # A forged grant behind the case request lets hospital send both its
    # segments. Pharma's and clinic's streams are lost, so case 312 stays
    # stored and owed by them: hospital does not owe the oldest owed case,
    # the miner grants it nothing, and its second segment arrives past its
    # credit.
    ("provisioner that sends past its credit",
     dict(seg_size=GRANTED, edits=[(KIND_CASES_RES, "pharma", "miner", _drop),
                                   (KIND_CASES_RES, "clinic", "miner", _drop),
                                   (KIND_CASES_REQ, *TO_HOSPITAL, _then_grant(10**9))]),
     "miner", "UnexpectedMessage"),
    ("dropped grant",
     dict(seg_size=GRANTED, edits=[(KIND_CASES_GRANT, *TO_HOSPITAL, _drop)]),
     "hospital", "Stalled"),
    ("forged sender",
     dict(edits=[(KIND_CASES_REF_RES, "pharma", "miner",
                  lambda msg: dataclasses.replace(msg, sender="hospital"))]),
     "miner", "UnexpectedMessage"),
    # JSON true is an int to isinstance; it is refused, not taken as 1.
    ("seg_size that is a boolean",
     dict(edits=[(KIND_CASES_REQ, *TO_HOSPITAL, _body(seg_size=True))]),
     "hospital", "UnexpectedMessage"),
    # The evidence does not cover the request body, but every segment's
    # associated data binds the seg_size it was cut to. Hospital seals under
    # the 30 it received, the miner opens under its own 1,000,000, and the
    # first segment fails its tag (both ends would otherwise wait on
    # different first credits, with no named cause).
    ("seg_size rewritten in flight",
     dict(edits=[(KIND_CASES_REQ, *TO_HOSPITAL, _body(seg_size=GRANTED))]),
     "miner", "AuthFailure"),
    ("seg_size 0 sent to a provisioner",
     dict(edits=[(KIND_CASES_REQ, "miner", "clinic", _body(seg_size=0))]),
     "clinic", "InvalidSegSize"),
    ("kind the role does not handle",
     dict(edits=[(KIND_CASES_REF_RES, *FROM_HOSPITAL,
                  lambda msg: dataclasses.replace(msg, kind=KIND_CASES_REQ))]),
     "miner", "UnexpectedMessage"),
    ("message that is not a JSON object",
     dict(edits=[(KIND_CASES_REF_RES, *FROM_HOSPITAL, _head(b"[1, 2]"))]),
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
     dict(edits=[(KIND_CASES_REF_RES, *FROM_HOSPITAL, _head(b"[" * 100_000))]),
     "miner", "UnexpectedMessage"),
    ("truncated message frame",
     dict(edits=[(KIND_CASES_REF_RES, *FROM_HOSPITAL, lambda msg: msg.encode()[:-1])]),
     "miner", "UnexpectedMessage"),
    ("message frame of another version",
     dict(edits=[(KIND_CASES_REQ, *TO_HOSPITAL,
                  lambda msg: (FRAME_VERSION + 1).to_bytes(2, "big") + msg.encode()[2:])]),
     "hospital", "UnexpectedMessage"),
    ("cases_ref_res without a nonce",
     dict(edits=[(KIND_CASES_REF_RES, *FROM_HOSPITAL, _blob(lambda b: b""))]),
     "miner", "UnexpectedMessage"),
    ("nonce too long to sign",
     dict(edits=[(KIND_CASES_REF_RES, *FROM_HOSPITAL, _blob(lambda b: bytes(0x10000)))]),
     "miner", "UnexpectedMessage"),
    ("15-byte nonce",
     dict(edits=[(KIND_CASES_REF_RES, *FROM_HOSPITAL, _blob(lambda b: b[:15]))]),
     "miner", "UnexpectedMessage"),
    ("evidence frame of four fields",
     dict(edits=[(KIND_CASES_REQ, *TO_HOSPITAL, _blob(lambda b: frame(*unframe(b, 5)[:4])))]),
     "hospital", "UnexpectedMessage"),
    ("evidence with a trailing byte",
     dict(edits=[(KIND_CASES_REQ, *TO_HOSPITAL, _blob(lambda b: b + b"\x00"))]),
     "hospital", "UnexpectedMessage"),
    # The proof arrives as bytes and is decoded as strict UTF-8, so it never
    # reaches the verifier: the provisioner aborts instead of rejecting.
    ("identity-proof bytes that are not UTF-8",
     dict(edits=[(KIND_CASES_REQ, *TO_HOSPITAL, _evidence_field(1, b"org:\xff"))]),
     "hospital", "UnexpectedMessage"),
]


def test_evidence_that_is_not_utf8_text_is_rejected(three_partitions):
    # The identity proof arrives as bytes and is decoded as strict UTF-8, so
    # a proof with no text form is malformed evidence: it never reaches the
    # verifier, and nothing is shipped.
    shipped = []
    edits = [
        (KIND_CASES_REQ, *TO_HOSPITAL, _evidence_field(1, b"org:\xff")),
        (KIND_CASES_RES, *FROM_HOSPITAL, _kept(shipped)),
    ]
    nodes, early = _run(three_partitions, edits=edits)
    hospital = nodes["hospital"]
    assert (hospital.phase, hospital.aborted_reason) == ("aborted", "UnexpectedMessage")
    assert hospital.aborted_message.startswith("malformed evidence: ")
    assert shipped == []
    assert early == []


def test_evidence_bound_to_another_provisioners_nonce_is_rejected(three_partitions):
    # The miner fans its case requests out in peer order, so clinic's
    # evidence passes the link before hospital's request does.
    to_clinic, shipped = [], []
    edits = [
        (KIND_CASES_REQ, "miner", "clinic", _kept(to_clinic)),
        (KIND_CASES_REQ, *TO_HOSPITAL, _blob(lambda b: to_clinic[0].blob)),
        (KIND_CASES_RES, *FROM_HOSPITAL, _kept(shipped)),
    ]
    nodes, early = _run(three_partitions, edits=edits)
    hospital = nodes["hospital"]
    assert (hospital.phase, hospital.aborted_reason) == ("aborted", "EvidenceRejected")
    assert hospital.aborted_message == REASON_NONCE
    assert shipped == []
    assert nodes["clinic"].phase == "done"
    assert early == []


@pytest.mark.filterwarnings("ignore:.* exceed seg_size")
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
    if faulty != "miner":
        # Nothing tells the miner that a provisioner stopped; it waits until
        # the session goes quiet, then gives up naming whom it waited for.
        assert (miner.phase, miner.aborted_reason) == ("aborted", "Stalled")
        assert faulty in miner.aborted_message
    assert miner.cstor == {} and miner.csize == {}
    assert miner.accountant.current_bytes == 0
    assert miner.streams == {}
    assert early == []
    if kwargs.get("incremental") is False:
        assert miner.sink.cases == []


@pytest.mark.filterwarnings("ignore:.* exceed seg_size")
@pytest.mark.parametrize(
    "row,message",
    [
        ("dropped segment", "sender proof rejected"),
        ("key fields on a later segment", "key fields on segment 1 of a stream"),
        ("share for another session", "segment ciphertext failed authentication"),
        ("seg_size rewritten in flight", "segment ciphertext failed authentication"),
    ],
)
def test_a_stream_key_fault_names_the_check_that_failed(three_partitions, row, message):
    # The first segment lost (the dropped segment is hospital's first of
    # two), key fields on a later one, and a share for another session each
    # fail a check of their own; a seg_size rewritten in flight fails the
    # tag, as the foreign share does.
    (kwargs,) = [r[1] for r in FAULTS if r[0] == row]
    nodes, _ = _run(three_partitions, **kwargs)
    miner = nodes["miner"]
    assert (miner.aborted_reason, miner.aborted_message) == ("AuthFailure", message)


def test_a_segment_of_another_orgs_events_is_refused_before_it_is_stored(three_partitions):
    # Clinic holds a fragment of case 312 only, so the case never completes,
    # and the miner names the label it found and the sender it checked.
    (kwargs,) = [r[1] for r in FAULTS if r[0] == "events labelled with another org's id"]
    nodes, _ = _run(three_partitions, **kwargs)
    miner = nodes["miner"]
    assert (miner.aborted_reason, miner.aborted_message) == (
        "ForeignEvent",
        "events of pharma from clinic",
    )
    assert all(case.events[0].iid != "312" for case in miner.sink.cases)
    assert miner.accountant.current_bytes == 0


def test_a_segment_with_a_case_not_owed_is_refused_before_any_case_is_handed_over(
    three_partitions,
):
    # Hospital alone, its cases 312 and 711 in one segment, its refs naming
    # 312 only: 312 would complete at once, but the miner checks the
    # segment whole, so neither case reaches the sink.
    (kwargs,) = [r[1] for r in FAULTS if r[0] == "unrequested iid"]
    nodes, _ = _run({"hospital": three_partitions["hospital"]}, **kwargs)
    miner = nodes["miner"]
    assert (miner.aborted_reason, miner.aborted_message) == ("UnexpectedIid", "711 from hospital")
    assert miner.sink.cases == []
    assert miner.cstor == {} and miner.accountant.current_bytes == 0


def test_refs_naming_a_case_the_provisioner_lacks_end_its_stream_owing_it(three_partitions):
    # Hospital streams its whole partition and ends, so nothing but the
    # miner aborts: it names the case the rewritten refs promised.
    (kwargs,) = [r[1] for r in FAULTS if r[0] == "refs naming a case the provisioner does not hold"]
    nodes, _ = _run(three_partitions, **kwargs)
    miner = nodes.pop("miner")
    assert (miner.aborted_reason, miner.aborted_message) == (
        "IncompleteDelivery",
        "hospital ended its stream owing 999",
    )
    assert all(p.phase == "done" for p in nodes.values())


@pytest.mark.filterwarnings("ignore:.* exceed seg_size")
@pytest.mark.parametrize(
    "row,reason,message",
    [
        ("hospital's plan reversed", "UnexpectedIid", "711 from hospital"),
        ("hospital's plan reversed, batch", "UnexpectedIid", "711 from hospital"),
        ("hospital cuts over budget", "InvalidSegSize",
         "segment 0 from hospital holds 2 cases in 654 bytes, over seg_size 300"),
    ],
)
def test_a_segment_outside_the_peak_bound_is_refused_before_it_is_stored(
    three_partitions, row, reason, message
):
    # Hospital's first segment is the one refused, so no event of hospital's
    # reaches the sink, and the miner names what the segment broke.
    (kwargs,) = [r[1] for r in FAULTS if r[0] == row]
    nodes, _ = _run(three_partitions, **kwargs)
    miner = nodes.pop("miner")
    assert (miner.aborted_reason, miner.aborted_message) == (reason, message)
    assert all(ev.provisioner_id != "hospital" for case in miner.sink.cases for ev in case)
    assert all(p.phase == "done" for p in nodes.values())


@pytest.mark.filterwarnings("ignore:.* exceed seg_size")
@pytest.mark.parametrize(
    "row,node,message",
    [
        ("cases_grant before the case request", "hospital", "cases_grant in phase refs_sent"),
        ("cases_grant that does not raise the credit", "hospital",
         "cases_grant of 300 does not raise the credit of 300"),
        ("cases_grant with a forged sender", "hospital", "sender 'miner' forged as 'pharma'"),
        ("provisioner that sends past its credit", "miner",
         "cases_res from hospital past its credit of 300 bytes"),
        ("dropped grant", "hospital", "awaiting a grant from miner"),
        ("dropped grant", "miner", "awaiting cases from hospital"),
    ],
)
def test_a_credit_fault_names_what_went_wrong(three_partitions, row, node, message):
    (kwargs,) = [r[1] for r in FAULTS if r[0] == row]
    nodes, _ = _run(three_partitions, **kwargs)
    assert nodes[node].aborted_message == message


@pytest.mark.filterwarnings("ignore:.* exceed seg_size")
def test_a_grant_to_a_stream_with_credit_left_aborts_its_provisioner(three_partitions):
    # Pharma's whole stream fits its first credit, so it has ended, with
    # credit left, when the forged grant behind its case request arrives.
    # An honest miner grants only a stream that has used all its credit.
    shipped = []
    edits = [
        (KIND_CASES_REQ, "miner", "pharma", _then_grant(600)),
        (KIND_CASES_RES, "pharma", "miner", _kept(shipped)),
    ]
    nodes, early = _run(three_partitions, seg_size=GRANTED, edits=edits)
    pharma = nodes["pharma"]
    assert (pharma.phase, pharma.aborted_reason) == ("aborted", "UnexpectedMessage")
    assert pharma.aborted_message == "cases_grant in phase done"
    assert pharma.sent == 208 < pharma.credit == 300
    assert len(shipped) == 2 and shipped[-1].body == {"last": True}
    assert nodes["miner"].phase == "done"
    assert early == []


@pytest.mark.filterwarnings("ignore:.* exceed seg_size")
def test_an_aborted_provisioner_holds_no_stream(three_partitions):
    # Hospital's first segment uses up its first credit, so it is streaming
    # with its second segment unsent when the grant that does not raise the
    # credit aborts it: it drops its plan, the segments not yet sent, and
    # forgets the stream's key.
    (kwargs,) = [r[1] for r in FAULTS if r[0] == "cases_grant that does not raise the credit"]
    nodes, _ = _run(three_partitions, **kwargs)
    hospital = nodes["hospital"]
    assert (hospital.phase, hospital.aborted_reason) == ("aborted", "UnexpectedMessage")
    assert hospital.sealed == 1
    assert hospital.plan is None
    assert hospital.stream_key == (b"", b"", b"")


def test_a_segment_from_another_session_is_rejected(three_partitions):
    recorded = []
    _run(three_partitions, edits=[(KIND_CASES_RES, *FROM_HOSPITAL, _kept(recorded))])
    replay = (KIND_CASES_RES, *FROM_HOSPITAL, _blob(lambda blob: recorded[0].blob))
    nodes, early = _run(three_partitions, edits=[replay])
    miner = nodes["miner"]
    assert (miner.phase, miner.aborted_reason) == ("aborted", "AuthFailure")
    assert miner.cstor == {} and miner.accountant.current_bytes == 0
    assert miner.streams == {}
    assert early == []


def test_honest_session_passes_the_same_checks(three_partitions):
    nodes, early = _run(three_partitions)
    assert all(node.phase == "done" for node in nodes.values())
    assert all(node.aborted_reason is None for node in nodes.values())
    assert early == []


# A byte changed in the plaintext can still decode into a valid segment, so
# such a session may complete; the ones that do not must name one of these.
# A changed byte of a provisioner id names another provisioner: ForeignEvent.
# A changed iid byte can split a lone over-budget case into two cases, whose
# segment is then over seg_size: InvalidSegSize.
CORRUPTION_REASONS = {
    "AuthFailure",
    "WireError",
    "TruncatedPayload",
    "UnsupportedVersion",
    "ModelError",
    "DuplicateEvent",
    "UnexpectedIid",
    "IncompleteDelivery",
    "ForeignEvent",
    "InvalidSegSize",
}


@pytest.mark.filterwarnings("ignore:.* exceed seg_size")
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
    assert miner.streams == {}
    assert all(p.phase == "done" for p in nodes.values())
    assert early == []


@settings(max_examples=150, deadline=None)
@given(target=st.integers(0, 11), position=st.integers(0, 1 << 16), mask=st.integers(1, 255))
def test_corrupted_control_message_never_escapes(three_partitions, target, position, mask):
    # One byte of the target-th message of the session (12 in all) flipped
    # in flight. The faulting node aborts, a peer it no longer answers aborts
    # Stalled once the session goes quiet, and nothing raises out of the
    # scheduler.
    sent = [0]

    def flip_target(msg):
        sent[0] += 1
        payload = msg.encode()
        return _flip(payload, position, mask) if sent[0] - 1 == target else payload

    nodes, early = _run(three_partitions, edits=[(None, None, None, flip_target)])
    miner = nodes["miner"]
    for node in nodes.values():
        assert (node.phase == "aborted") == (node.aborted_reason is not None)
    assert miner.cstor == {} and miner.accountant.current_bytes == 0
    assert miner.streams == {}
    assert early == []
