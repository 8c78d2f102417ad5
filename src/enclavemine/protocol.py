"""Case-synchronizing protocol between a secure miner and provisioners.

Every message is one frame (``enclave.frame``) of two fields: a JSON head
``{"kind", "sender", "session", "body"}`` whose body holds only text and
numbers, and a blob that carries the kind's one byte string raw, or nothing.
Message flow per session, as ``kind {body} + blob``:

1. miner -> all provisioners   cases_ref_req {identity_proof}    + nothing
2. provisioner -> miner        cases_ref_res {iids}              + nonce
3. miner -> all provisioners   cases_req {seg_size}              + evidence   (after all refs)
4. provisioner -> miner        cases_res {} or {last}            + envelope   (stream)
5. miner -> provisioner        cases_grant {credit}              + nothing    (flow control)

Attestation rides in messages 2 and 3: a provisioner draws a fresh nonce
when it answers the ref request and sends it with its refs, and at fan-out
the miner builds one attestation evidence per provisioner, bound to that
provisioner's nonce, and sends it with the case request.

Each provisioner's stream of message 4 has one AES-GCM key, which it
agrees with the evidence's session key once, after appraising the evidence
(``enclave.new_stream_key``), and one sender proof, which it signs once
over the session, its id and the key share. The stream's first envelope
carries the share and the proof, every later one carries both fields
empty, and AES-GCM binds each segment to the session, the sender, the
seg_size it was cut to, its index in the stream (from 0) and its end mark.
Links are FIFO, so the index never rides on the wire: the miner holds, in
the stream's record, the stream key and the next index it expects. It
verifies the proof and derives the key on the stream's first envelope only;
a later envelope that carries key fields, and a segment lost, replayed,
reordered, re-marked or cut to another seg_size on the way, fail with
``AuthFailure``. The record goes when the stream ends or the miner aborts.

The miner's peers are the keys of its key table (``provisioner_keys``),
in sorted order; a provisioner's id is its identity's ``org_id``, and
every event it holds carries that id as its ``provisioner_id``: a
``Provisioner`` refuses a partition that holds another (``ValueError``), and
the miner a segment that does, before it stores any fragment of it
(:class:`ForeignEvent`), from the distinct provisioner ids that decoding the
segment returns.

The miner keeps one record per stream and one store of cases. streams
(provisioner -> its stream's record; its keys are the provisioners whose
refs arrived and whose last segment has not been opened) holds in each
record the iids its refs named, as one list sorted once, ascending, and a
cursor ``done``: the stream owes ``refs[done:]``. It also holds the nonce
its refs carried, the bytes received and the credit granted, its inbox
(below), and the stream key and next index. Before it stores any fragment of
a segment of k cases, in both modes, the miner checks that the segment's
sorted iids are ``refs[done:done + k]``, the next k its stream owes, and
advances ``done`` by k; so a stream delivers its cases in ascending iid
order, each once. cstor (iid -> the case's fragments received so far, one
list of events in canonical order per provisioner that sent part of it,
unmerged) holds the stored cases, with csize holding each one's encoded
size. A case is complete when no stream still owes its iid, which bisection
finds in each open stream's ``refs[done:]``. Each case is merged once, by
one sort of its fragments on their timestamps (``log_from_events``, which
re-sorts a run of tied events only if it is out of canonical order), and
handed to the sink's ``on_case`` (the only sink method the protocol calls).
In incremental mode a case is merged and handed over when it completes, and
it is then freed. In batch mode nothing is handed over until the last stream
ends; then one check runs over the ids of all stored fragments, and each
case, in ascending iid order, is merged just before it is handed over, so
the sink meets the first case after one merge, not after all of them. A
case's merge finds an event id it carries twice (``DuplicateEvent``); the
batch check finds every id carried twice, within a case or across cases,
before any case is handed over. Incremental mode keeps no ids of freed cases
and misses an id reused in another case.

The enclave accountant counts wire-encoding bytes without re-encoding
anything. ``wire.decode_cases`` splits each segment by iid in its one decode
pass and reads each fragment's encoded size off the decode offsets; a
fragment costs that size, minus ``EMPTY_LOG_SIZE`` when part of its case is
already stored, because merging logs with disjoint events gives ``size(a) +
size(b) - EMPTY_LOG_SIZE``. So csize holds the size the merged case will
encode to. Freeing a case frees its csize entry, and a batch session's n
cases cost what their merged log would, ``sum(csize) - EMPTY_LOG_SIZE * (n - 1)``.
Batch mode counts that merged log from before the first hand-over until after
the last, as the non-incremental strategy that holds every case to the end
would, although it builds only one case at a time.

A provisioner sends one cases_res per segment and marks its final one with
``"last": true``; a provisioner that owes nothing sends the single message
with body ``{"last": true}`` and an empty blob, and agrees no stream key.
Once ``last`` has arrived the stream has ended, and a later cases_res from
it is an :class:`UnexpectedMessage`. When the miner opens that last entry it
checks that the sender owes nothing (else :class:`IncompleteDelivery`) and
deletes its stream's record. The session finishes when every stream's last
entry is open.

Opening order. On receipt the miner only checks a cases_res (phase, sender,
ended stream, credit, ``last``), counts its plaintext bytes off the
envelope's public ciphertext length (``enclave.plaintext_length``, which
fails a malformed frame at once with ``AuthFailure``) and parks the
envelope, still sealed, in its stream's inbox. Parked envelopes are host
memory, as the transport's queues are, and the accountant does not count
them: an untrusted host may hold them at no cost to secrecy, since AES-GCM
authenticates each one when it is opened. A stream is due when it has an
envelope parked and owes the oldest iid any stream still owes, or owes
nothing. If the receiving stream is due, the enclave opens and ingests its
inbox head, then the head of the first due stream in ``peers`` order, and so
on until none is due. So incremental ingest is a k-way merge of the streams
in case-id order. Only an open moves the oldest owed iid, which the miner
keeps, so a receipt can make only its own stream due. Each stream's oldest
owed iid is ``refs[done]``, so finding the oldest reads one iid per stream.
Batch mode holds every case to the end, so case order saves nothing there:
every stream with an envelope parked is due, and each envelope is opened on
receipt.

Flow control. The miner grants each stream credit in plaintext segment
bytes, in steps of the budget ``B = CREDIT_SEGMENTS * seg_size``, as HTTP/2
stream windows do (RFC 9113, section 5.2). The first credit, ``B``, is
implied by the case request. Both ends derive it from ``seg_size``, which
AES-GCM binds into every segment (the provisioner seals with the seg_size it
received, the miner opens with its own), so a seg_size rewritten in flight
fails the stream's first segment with ``AuthFailure`` instead of leaving the
two ends waiting on different credits. A provisioner groups its partition by
case once, when it sends its refs, whose iids are the grouping's keys. Once
it has appraised the evidence it makes a plan that sizes nothing yet
(``segment_event_log``): it cuts, gathers, encodes and seals a segment only
when it sends that segment, sizing by arithmetic the segment's cases and the
one case after them that closes it. So its first window costs the segments
the first credit lets out, not the sizing or the encoding of the whole
partition. It sends while the bytes it has sent are below its credit. After
its last segment it is ``done`` and drops the plan and the stream key,
share and proof; short of it, with its credit used up, it is ``streaming``
and waits for a grant. The miner keeps, in each open stream's
record, the bytes received and the credit granted. A stream is blocked when
it has received at least its credit; its provisioner stopped at the segment
that reached it, so nothing of it is in flight. After each cases_res the
miner grants each blocked stream, in sorted order, the next multiple of
``B`` above the bytes it has received, sent as the new cumulative
``credit``: ``B`` more than its credit, unless its last segment passed the
credit by ``B`` or more, which only a case bigger than ``B``, shipped alone,
can do. It grants when

(a) the stream owes the oldest iid any stream still owes, or nothing is
    owed at all; or
(b) the session is in batch mode, which holds every case to the end, so
    withholding credit would save nothing: there the grant is more than
    any stream sends, and a stream is granted at most once.

After the opening round, a stream that owes the oldest owed iid has nothing
parked (it would be due), so a stream with an envelope parked is never
granted: its inbox holds at most the window of its last grant, under
``B`` plus one segment, and a stream whose ``last`` is parked, whose
provisioner is ``done`` and would abort on a grant, gets none.

A cases_res from a blocked stream is an :class:`UnexpectedMessage`, and so
is a cases_grant outside ``streaming``, from another node than the miner, or
one that does not raise the credit. The rule cannot deadlock in incremental
mode. A grant lifts the credit above the bytes received, so the granted
stream sends at least one more segment, and its cases_res makes the miner
open and grant again. While some case is owed, let c be the oldest: after
the opening round no stream that owes c has an envelope parked, so each is
either sending within its credit, and its next cases_res arrives, or
blocked, and then granted. Once nothing is owed, every parked envelope
qualifies and every blocked stream is granted.

The bound, in incremental mode. Let ``F1_p`` be the most that one segment
of stream p costs stored: its plaintext plus ``EMPTY_LOG_SIZE`` per case
beyond its first. Stored bytes stay at most ``sum(F1_p)``, and the
accountant's peak at most that plus the largest segment, whose plaintext is
held while it is ingested. This depends neither on ``B``, nor on the case
count, nor on the delivery order. Why: when stream p's inbox head is
opened, p owes the oldest owed iid c (or owes nothing, and then the head
holds no case it may store). p delivers in ascending iid order, which the
miner enforces, so every case it delivered before has an iid below c; no
stream owes such a case, so it is complete and was freed when it
completed. So p's stored fragments all come from its last opened segment,
which costs at most ``F1_p`` stored, since the miner refuses a segment of
two or more cases over the segmenter's budget. The bound rests on these
two checks (see "Failure contract"), so it holds for every provisioner
that the session does not abort.

Provisioners never ship a byte before appraising the miner's attestation
evidence against their reference measurement, allow-list, and the nonce they
issued; a refused miner or rejected evidence aborts the provisioner before it
plans, agrees a key or seals anything.

Failure contract: a node ends ``done`` or ``aborted``, and only
:func:`_abort` sets ``aborted``, recording ``aborted_reason`` (the fault's
class name) and ``aborted_message`` (its text). Both roles handle a message
in :func:`_serve`, which decodes it, checks its session and sender, and
calls the role's ``_on_<kind>`` handler (a kind the role does not handle is
an :class:`UnexpectedMessage`). Handlers only raise. A
:class:`ProtocolError` (bad or out-of-order control input, a forged sender,
a case other than the next its stream owes: :class:`UnexpectedIid`, an event
of another provisioner: :class:`ForeignEvent`, a refused miner:
:class:`MinerRefused`), an ``EnclaveError`` (tampered envelope,
``EvidenceRejected``, capacity cap), a ``WireError`` or ``ModelError``
(malformed segment, event id carried twice) or an ``InvalidSegSize`` (bad
``seg_size``, or a segment of two or more cases cut over it) aborts the
node; ``handle`` returns no sends and the scheduler runs on. So a
provisioner that ships its cases out of ascending iid order aborts the
session with ``UnexpectedIid``, and one that cuts a segment of two or more
cases above ``seg_size - EMPTY_LOG_SIZE`` bytes with ``InvalidSegSize``,
before any fragment of that segment is stored. A malformed envelope fails
when it arrives, a tampered one when it is opened, which may be after later
envelopes have arrived and been parked; either way the miner aborts with
``AuthFailure``. An aborted node drops every later message and releases its
state in its ``_release``: the miner its stored cases and its streams'
records with their inboxes, a provisioner its grouping of cases, its plan
(the segments not yet sent, and the cases not yet cut) and its stream key.
Once no message is pending, the transport calls each node's ``on_quiet`` (a
deployment's timeout): a node still waiting aborts with :class:`Stalled`,
naming what it waits for (``awaiting cases from clinic``, or a ``streaming``
provisioner's ``awaiting a grant from miner``). Program bugs
(``UnderflowBug``, the scheduler's ``TransportError``) raise.
"""

from __future__ import annotations

import json
import os
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, zip_longest
from operator import attrgetter
from typing import Deque, Dict, FrozenSet, List, Optional, Tuple

from .enclave import (
    AttestationEvidence,
    BuildManifest,
    EnclaveAccountant,
    EnclaveError,
    OrgIdentity,
    SessionKeys,
    build_evidence,
    compute_measurement,
    frame,
    new_stream_key,
    open_segment,
    plaintext_length,
    seal_segment,
    sign_stream,
    unframe,
    verify_evidence,
)
from .model import Event, EventLog, ModelError, check_unique_ids, log_from_events
from .segmenter import InvalidSegSize, SegmentPlan, case_positions, gather, segment_event_log
from .wire import EMPTY_LOG_SIZE, WireError, decode_cases, encode_log

# Ingest decodes, splits and sizes a segment in one pass and merges each case
# once, so it calls none of these; the names stay bound so that the
# benchmark's traced run (perfbench/spans.py) can wrap them and count their
# calls, until in-program spans replace the wrapping (ROADMAP item 5).
from .model import extract_case, merge, merge_all  # noqa: F401
from .segmenter import size_of  # noqa: F401
from .wire import decode_log  # noqa: F401

__all__ = [
    "ProtocolError",
    "NoProvisioners",
    "UnknownProvisioner",
    "DuplicateResponse",
    "UnexpectedIid",
    "ForeignEvent",
    "UnexpectedMessage",
    "IncompleteDelivery",
    "MinerRefused",
    "Stalled",
    "Msg",
    "MinerConfig",
    "SecureMiner",
    "ProvisionerConfig",
    "Provisioner",
    "KIND_CASES_REF_REQ",
    "KIND_CASES_REF_RES",
    "KIND_CASES_REQ",
    "KIND_CASES_RES",
    "KIND_CASES_GRANT",
    "CREDIT_SEGMENTS",
]


class ProtocolError(Exception):
    pass


class NoProvisioners(ProtocolError):
    pass


class UnknownProvisioner(ProtocolError):
    pass


class DuplicateResponse(ProtocolError):
    pass


class UnexpectedIid(ProtocolError):
    """A segment carried a case other than the next its stream owes."""


class ForeignEvent(ProtocolError):
    """A segment carried an event labelled with another provisioner's id."""


class UnexpectedMessage(ProtocolError):
    pass


class IncompleteDelivery(ProtocolError):
    """A provisioner ended its stream while still owing cases."""


class MinerRefused(ProtocolError):
    """The miner's identity proof is not on the provisioner's allow-list."""


class Stalled(ProtocolError):
    """The session went quiet while the node still waited for a peer."""


KIND_CASES_REF_REQ = "cases_ref_req"
KIND_CASES_REF_RES = "cases_ref_res"
KIND_CASES_REQ = "cases_req"
KIND_CASES_RES = "cases_res"
KIND_CASES_GRANT = "cases_grant"

# A stream's first credit, and the step of its grants, in segments of seg_size bytes.
CREDIT_SEGMENTS = 10
# A batch session's grant step: more than any stream sends, so its grant is the last.
_CREDIT_UNLIMITED = 2**63 - 1

# An event's provisioner id, read in C over a partition.
_provisioner_id = attrgetter("provisioner_id")

# Bytes of the freshness nonce a provisioner issues for the miner's evidence.
_NONCE_SIZE = 16

_MINER_KINDS = frozenset({KIND_CASES_REF_RES, KIND_CASES_RES})
_PROVISIONER_KINDS = frozenset({KIND_CASES_REF_REQ, KIND_CASES_REQ, KIND_CASES_GRANT})

# What input from a peer can make a handler raise; see "Failure contract".
_FAULTS = (ProtocolError, EnclaveError, WireError, ModelError, InvalidSegSize)


@dataclass(frozen=True)
class Msg:
    kind: str
    sender: str
    session: str
    body: Dict[str, object]
    blob: bytes

    def encode(self) -> bytes:
        doc = {"kind": self.kind, "sender": self.sender, "session": self.session, "body": self.body}
        return frame(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8"), self.blob)

    @classmethod
    def decode(cls, payload: bytes) -> "Msg":
        try:
            head, blob = unframe(payload, 2)
            doc = json.loads(head.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise UnexpectedMessage("unparsable message: %s" % exc) from exc
        if not isinstance(doc, dict):
            raise UnexpectedMessage("message head is not a JSON object")
        fields = (doc.get("kind"), doc.get("sender"), doc.get("session"))
        body = doc.get("body", {})
        if not all(isinstance(f, str) for f in fields) or not isinstance(body, dict):
            raise UnexpectedMessage("message lacks a kind, sender, session or body")
        return cls(*fields, body, blob)


def _serve(node, sender: str, payload: bytes, kinds: FrozenSet[str]) -> List[Tuple[str, bytes]]:
    """Both roles' ``handle``: check, dispatch, abort (see "Failure contract")."""
    if node.phase == "aborted":
        return []
    try:
        msg = Msg.decode(payload)
        if msg.session != node.config.session:
            raise UnexpectedMessage(
                "session %r does not match %r" % (msg.session, node.config.session)
            )
        if msg.sender != sender:
            raise UnexpectedMessage("sender %r forged as %r" % (sender, msg.sender))
        if msg.kind not in kinds:
            raise UnexpectedMessage("%s cannot handle %r" % (node.node_id, msg.kind))
        return getattr(node, "_on_" + msg.kind)(msg)
    except _FAULTS as exc:
        _abort(node, exc)
        return []


def _abort(node, exc: Exception) -> None:
    """The only way into phase ``aborted`` (see "Failure contract")."""
    node.phase = "aborted"
    node.aborted_reason = type(exc).__name__
    node.aborted_message = str(exc)
    node._release()


def _stall(node, waiting: str) -> None:
    """Both roles' ``on_quiet``: a node still waiting aborts with :class:`Stalled`."""
    if node.phase not in ("done", "aborted"):
        _abort(node, Stalled("awaiting " + waiting))


def _field(msg: Msg, key: str, kind: type):
    value = msg.body.get(key)
    # JSON true and false decode to bools, which are ints to isinstance.
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise UnexpectedMessage("%s without %s" % (msg.kind, key))
    return value


def _iids(msg: Msg) -> List[str]:
    iids = _field(msg, "iids", list)
    if not all(isinstance(iid, str) for iid in iids):
        raise UnexpectedMessage("%s iids must be strings" % msg.kind)
    return iids


@dataclass
class _Stream:
    """One provisioner's stream at the miner, from its refs to its last segment."""

    refs: List[str]  # the iids its refs named, ascending: it owes refs[done:]
    nonce: bytes  # the freshness nonce its refs carried
    credit: int  # plaintext bytes granted, cumulative
    done: int = 0  # how many of refs it has delivered, in order
    received: int = 0  # plaintext bytes received, opened or parked
    ended: bool = False  # its last cases_res has arrived
    # The envelopes received and not yet opened, each with its end mark:
    # host memory, sealed, outside the enclave.
    inbox: Deque[Tuple[bytes, bool]] = field(default_factory=deque)
    key: Optional[bytes] = None  # the stream key, once its first envelope is open
    index: int = 0  # the index its next segment must carry

    def owes(self, iid: str) -> bool:
        """Whether ``iid`` is in ``refs[done:]``, found by bisection."""
        refs = self.refs
        i = bisect_left(refs, iid, self.done)
        return i < len(refs) and refs[i] == iid


@dataclass
class MinerConfig:
    miner_id: str
    org_proof: str
    seg_size: int
    do_yield_cases: bool
    manifest: BuildManifest
    session: str
    provisioner_keys: Dict[str, bytes]
    capacity: Optional[int] = None


class SecureMiner:
    """Miner-side state machine; all handlers run run-to-completion."""

    def __init__(self, config: MinerConfig, sink) -> None:
        if not config.provisioner_keys:
            raise NoProvisioners("at least one provisioner required")
        self.config = config
        self.peers = tuple(sorted(config.provisioner_keys))
        self.sink = sink
        self.node_id = config.miner_id
        self.session_keys = SessionKeys()
        self.measurement = compute_measurement(config.manifest)
        self.accountant = EnclaveAccountant(capacity=config.capacity)
        self.phase = "init"
        self.phase_label = "initialization"
        self.streams: Dict[str, _Stream] = {}
        self.cstor: Dict[str, List[List[Event]]] = {}
        self.csize: Dict[str, int] = {}
        self.budget = CREDIT_SEGMENTS * config.seg_size
        # The oldest iid any stream still owes, once every stream's refs are
        # in; None once nothing is owed, and always in batch mode, which
        # opens each envelope on receipt.
        self.oldest: Optional[str] = None
        self.yield_count = 0
        self.aborted_reason: Optional[str] = None
        self.aborted_message = ""

    # -- helpers ---------------------------------------------------------

    def _msg(self, kind: str, body: Dict[str, object], blob: bytes) -> bytes:
        return Msg(kind, self.node_id, self.config.session, body, blob).encode()

    def _require_known(self, sender: str) -> None:
        if sender not in self.config.provisioner_keys:
            raise UnknownProvisioner(sender)

    def _release(self) -> None:
        self.streams.clear()
        self.accountant.account(-sum(self.csize.values()))
        self.cstor.clear()
        self.csize.clear()

    def _oldest_owed(self) -> Optional[str]:
        streams = self.streams.values()
        return min([s.refs[s.done] for s in streams if s.done < len(s.refs)], default=None)

    def _due(self, s: _Stream) -> bool:
        """Whether ``s``'s inbox head may be opened: there is one, and ``s``
        owes the oldest owed iid, or nothing."""
        oldest = self.oldest
        return bool(s.inbox) and (
            oldest is None or s.done == len(s.refs) or s.refs[s.done] == oldest
        )

    def _pump(self, p: str, s: _Stream) -> None:
        """Open the head of stream ``p``'s inbox, which is due, then, while
        some stream is due, the head of the first due one in ``peers``
        order. Only an open moves ``oldest``, so after a round no parked
        envelope is due until the next open."""
        streams = self.streams
        incremental = self.config.do_yield_cases
        while True:
            envelope, last = s.inbox.popleft()
            if envelope:
                self._ingest_segment(p, s, envelope, last)
            if last:
                del streams[p]
                if s.done < len(s.refs):
                    raise IncompleteDelivery(
                        "%s ended its stream owing %s" % (p, ", ".join(s.refs[s.done :]))
                    )
                if not streams:
                    self._finish()
            if incremental:
                self.oldest = self._oldest_owed()
            for p in self.peers:
                s = streams.get(p)
                if s is not None and self._due(s):
                    break
            else:
                return

    def _grants(self) -> List[Tuple[str, bytes]]:
        """Grant each blocked stream more credit where the credit rule allows."""
        oldest = self.oldest
        step = self.budget if self.config.do_yield_cases else _CREDIT_UNLIMITED
        out = []
        for p in self.peers:
            s = self.streams.get(p)
            if s is not None and s.received >= s.credit and (
                oldest is None or (s.done < len(s.refs) and s.refs[s.done] == oldest)
            ):
                s.credit = (s.received // step + 1) * step  # the next multiple above received
                out.append((p, self._msg(KIND_CASES_GRANT, {"credit": s.credit}, b"")))
        return out

    # -- lifecycle -------------------------------------------------------

    def bootstrap(self) -> List[Tuple[str, bytes]]:
        if self.phase != "init":
            raise UnexpectedMessage("bootstrap after start")
        self.phase = "awaiting_refs"
        body = {"identity_proof": self.config.org_proof}
        return [(p, self._msg(KIND_CASES_REF_REQ, body, b"")) for p in self.peers]

    def handle(self, sender: str, payload: bytes) -> List[Tuple[str, bytes]]:
        return _serve(self, sender, payload, _MINER_KINDS)

    def on_quiet(self) -> None:
        if self.phase == "awaiting_cases":
            waiting = "cases from " + ", ".join(sorted(self.streams))
        else:  # a miner that never bootstrapped also awaits every peer's refs
            waiting = "refs from " + ", ".join(p for p in self.peers if p not in self.streams)
        _stall(self, waiting)

    # -- handlers --------------------------------------------------------

    def _on_cases_ref_res(self, msg: Msg) -> List[Tuple[str, bytes]]:
        self.phase_label = "initialization"
        self._require_known(msg.sender)
        if self.phase != "awaiting_refs":
            raise DuplicateResponse("refs from %s after request fan-out" % msg.sender)
        if msg.sender in self.streams:
            raise DuplicateResponse(msg.sender)
        if len(msg.blob) != _NONCE_SIZE:
            raise UnexpectedMessage("cases_ref_res nonce is not %d bytes" % _NONCE_SIZE)
        # The first credit, B, is implied by the case request.
        self.streams[msg.sender] = _Stream(sorted(set(_iids(msg))), msg.blob, self.budget)
        if len(self.streams) != len(self.peers):
            return []
        self.phase = "awaiting_cases"
        self.phase_label = "attestation"
        if self.config.do_yield_cases:
            self.oldest = self._oldest_owed()
        out = []
        for p in self.peers:
            s = self.streams[p]
            evidence = build_evidence(
                measurement=self.measurement,
                identity_proof=self.config.org_proof,
                k_pub=self.session_keys.k_pub,
                nonce=s.nonce,
            )
            body = {"seg_size": self.config.seg_size}
            out.append((p, self._msg(KIND_CASES_REQ, body, evidence.to_bytes())))
        return out

    def _on_cases_res(self, msg: Msg) -> List[Tuple[str, bytes]]:
        self.phase_label = "transmission"
        self._require_known(msg.sender)
        if self.phase != "awaiting_cases":
            raise UnexpectedMessage("cases_res in phase %s" % self.phase)
        s = self.streams.get(msg.sender)
        if s is None or s.ended:
            raise UnexpectedMessage("cases_res after completed stream from %s" % msg.sender)
        if s.received >= s.credit:
            raise UnexpectedMessage(
                "cases_res from %s past its credit of %d bytes" % (msg.sender, s.credit)
            )
        last = msg.body.get("last", False)
        if not isinstance(last, bool):
            raise UnexpectedMessage("cases_res last must be a boolean")
        if msg.blob:
            s.received += plaintext_length(msg.blob)
        elif not last:
            raise UnexpectedMessage("cases_res with neither an envelope nor last")
        s.ended = last
        s.inbox.append((msg.blob, last))
        if self._due(s):
            self._pump(msg.sender, s)
        return self._grants()

    def _ingest_segment(self, sender: str, s: _Stream, envelope: bytes, last: bool) -> None:
        plain, s.key = open_segment(
            envelope,
            self.session_keys,
            self.config.provisioner_keys[sender],
            self.config.session,
            sender,
            self.config.seg_size,
            s.index,
            last,
            s.key,
        )
        s.index += 1
        self.accountant.account(len(plain))
        try:
            cases, provisioners = decode_cases(plain)
            labels = provisioners - {sender}
            if labels:
                raise ForeignEvent("events of %s from %s" % (", ".join(sorted(labels)), sender))
            # The segmenter's own rule: a segment of two or more cases is at
            # most seg_size - EMPTY_LOG_SIZE bytes.
            if len(cases) > 1 and len(plain) + EMPTY_LOG_SIZE > self.config.seg_size:
                raise InvalidSegSize(
                    "segment %d from %s holds %d cases in %d bytes, over seg_size %d"
                    % (s.index - 1, sender, len(cases), len(plain), self.config.seg_size)
                )
            # The segment must hold exactly the next cases its stream owes.
            iids = sorted(cases)
            owed = s.refs[s.done : s.done + len(iids)]
            if iids != owed:
                first = next(iid for iid, ref in zip_longest(iids, owed) if iid != ref)
                raise UnexpectedIid("%s from %s" % (first, sender))
            s.done += len(iids)
            for iid in iids:
                events, size = cases[iid]
                delta = size - EMPTY_LOG_SIZE if iid in self.cstor else size
                self.accountant.account(delta)
                self.cstor.setdefault(iid, []).append(events)
                self.csize[iid] = self.csize.get(iid, 0) + delta
                if not self.config.do_yield_cases:
                    continue
                # The case is complete once no stream still owes it.
                if not any(other.owes(iid) for other in self.streams.values()):
                    case = log_from_events(chain.from_iterable(self.cstor.pop(iid)))
                    self.accountant.account(-self.csize.pop(iid))
                    self.yield_count += 1
                    self.sink.on_case(case)
        finally:
            self.accountant.account(-len(plain))

    def _finish(self) -> None:
        self.phase_label = "computation"
        if not self.config.do_yield_cases:
            fragments = chain.from_iterable(self.cstor.values())
            check_unique_ids(list(chain.from_iterable(fragments)))
            final_size = sum(self.csize.values()) - EMPTY_LOG_SIZE * (len(self.csize) - 1)
            self.accountant.account(final_size)
            self.yield_count += 1
            for iid in sorted(self.cstor):
                self.sink.on_case(log_from_events(chain.from_iterable(self.cstor[iid])))
            self.accountant.account(-final_size)
            self._release()
        self.phase = "done"


@dataclass
class ProvisionerConfig:
    partition: EventLog
    allowed_miners: FrozenSet[str]
    reference_measurement: bytes
    identity: OrgIdentity
    session: str
    root_public: Optional[bytes] = None


class Provisioner:
    """Provisioner-side state machine: advertise, attest the miner, stream."""

    def __init__(self, config: ProvisionerConfig) -> None:
        labels = set(map(_provisioner_id, config.partition.events)) - {config.identity.org_id}
        if labels:
            raise ValueError(
                "partition of %s holds events of %s"
                % (config.identity.org_id, ", ".join(sorted(labels)))
            )
        self.config = config
        self.node_id = config.identity.org_id
        self.phase = "idle"
        self.nonce: Optional[bytes] = None
        self.miner_id: Optional[str] = None
        # The partition's cases, grouped when the refs are sent, until the
        # case request hands them to the plan.
        self.cases: Dict[str, array] = {}
        # The stream, once the evidence is appraised: its plan, which cuts
        # each segment when it is sent, how many segments are sealed, its
        # key, share and proof, the plaintext bytes sent and the credit
        # granted.
        self.plan: Optional[SegmentPlan] = None
        self.sealed = 0
        self.stream_key: Tuple[bytes, bytes, bytes] = (b"", b"", b"")
        self.sent = 0
        self.credit = 0
        self.aborted_reason: Optional[str] = None
        self.aborted_message = ""

    def _msg(self, kind: str, body: Dict[str, object], blob: bytes) -> bytes:
        return Msg(kind, self.node_id, self.config.session, body, blob).encode()

    def _release(self) -> None:
        self.cases = {}
        self.plan = None
        self.stream_key = (b"", b"", b"")

    def handle(self, sender: str, payload: bytes) -> List[Tuple[str, bytes]]:
        return _serve(self, sender, payload, _PROVISIONER_KINDS)

    def on_quiet(self) -> None:
        if self.phase == "streaming":
            waiting = "a grant from %s" % self.miner_id
        else:
            waiting = "a case request from %s" % self.miner_id if self.miner_id else "a ref request"
        _stall(self, waiting)

    def _on_cases_ref_req(self, msg: Msg) -> List[Tuple[str, bytes]]:
        if self.phase != "idle":
            raise UnexpectedMessage("cases_ref_req in phase %s" % self.phase)
        proof = _field(msg, "identity_proof", str)
        if proof not in self.config.allowed_miners:
            raise MinerRefused("identity proof %r is not on the allow-list" % proof)
        self.miner_id = msg.sender
        self.nonce = os.urandom(_NONCE_SIZE)
        self.phase = "refs_sent"
        self.cases = case_positions(self.config.partition)
        body = {"iids": list(self.cases)}
        return [(msg.sender, self._msg(KIND_CASES_REF_RES, body, self.nonce))]

    def _on_cases_req(self, msg: Msg) -> List[Tuple[str, bytes]]:
        if self.phase != "refs_sent" or msg.sender != self.miner_id:
            raise UnexpectedMessage("cases_req in phase %s" % self.phase)
        seg_size = _field(msg, "seg_size", int)
        try:
            evidence = AttestationEvidence.from_bytes(msg.blob)
        except ValueError as exc:
            raise UnexpectedMessage("malformed evidence: %s" % exc) from exc
        k_pub = verify_evidence(
            evidence,
            reference_measurement=self.config.reference_measurement,
            allowed_orgs=self.config.allowed_miners,
            expected_nonce=self.nonce,
            root_public=self.config.root_public,
        )
        cases, self.cases = self.cases, {}
        plan = segment_event_log(self.config.partition, seg_size, cases)
        if not cases:
            # Nothing to seal, so no stream key: the one message is the end mark.
            self.phase = "done"
            return [(msg.sender, self._msg(KIND_CASES_RES, {"last": True}, b""))]
        k_sym, share = new_stream_key(k_pub)
        proof = sign_stream(self.config.identity, self.config.session, share)
        self.stream_key = (k_sym, share, proof)
        self.plan = plan
        self.credit = CREDIT_SEGMENTS * seg_size
        return self._stream()

    def _on_cases_grant(self, msg: Msg) -> List[Tuple[str, bytes]]:
        if self.phase != "streaming" or msg.sender != self.miner_id:
            raise UnexpectedMessage("cases_grant in phase %s" % self.phase)
        credit = _field(msg, "credit", int)
        if credit <= self.credit:
            raise UnexpectedMessage(
                "cases_grant of %d does not raise the credit of %d" % (credit, self.credit)
            )
        self.credit = credit
        return self._stream()

    def _stream(self) -> List[Tuple[str, bytes]]:
        """Cut, gather, encode, seal and send segments while the bytes sent
        are below the credit; the stream is ``done``, its plan and key
        dropped, after its last, else ``streaming``."""
        out = []
        plan = self.plan
        self.phase = "streaming"
        while self.sent < self.credit:
            positions, last = plan.cut(self.sealed)
            plain = encode_log(gather(self.config.partition, positions))
            blob = seal_segment(
                plain,
                *self.stream_key,
                self.config.session,
                self.node_id,
                plan.seg_size,
                self.sealed,
                last,
            )
            end = {"last": True} if last else {}
            out.append((self.miner_id, self._msg(KIND_CASES_RES, end, blob)))
            self.sealed += 1
            self.sent += len(plain)
            if last:
                self.phase = "done"
                self._release()
                break
        return out
