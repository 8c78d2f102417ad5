"""Case-synchronizing protocol between a secure miner and provisioners.

Every message is one frame (``enclave.frame``) of two fields: a JSON head
``{"kind", "sender", "session", "body"}`` whose body holds only text and
numbers, and a blob that carries the kind's one byte string raw, or nothing.
Message flow per session, as ``kind {body} + blob``:

1. miner -> all provisioners   cases_ref_req {identity_proof}    + nothing
2. provisioner -> miner        cases_ref_res {iids}              + nonce
3. miner -> all provisioners   cases_req {seg_size, iids}        + evidence   (after all refs)
4. provisioner -> miner        cases_res {} or {last}            + envelope   (stream)

Attestation rides in messages 2 and 3: a provisioner draws a fresh nonce
when it answers the ref request and sends it with its refs, and at fan-out
the miner builds one attestation evidence per provisioner, bound to that
provisioner's nonce, and sends it with the case request.

Each provisioner's stream of message 4 has one symmetric key, which it
wraps to the evidence's session key once, after appraising the evidence,
and one sender proof, which it signs once over the session, its id and the
wrapped key. Every envelope of the stream carries both, and AES-GCM binds
each segment to the session, the sender, its index in the stream (from 0)
and its end mark. Links are FIFO, so the index never rides on the wire:
the miner holds, per open stream in ``stream_keys``, the
``(wrapped, proof, k_sym)`` record the stream opened with and the next
index it expects. It verifies the proof and unwraps again only when an
envelope's wrapped or proof bytes differ from the record's, and a segment
lost, replayed, reordered or re-marked on the way fails its tag. The entry
goes when the stream ends or the miner aborts.

The miner's peers are the keys of its key table (``provisioner_keys``),
in sorted order; a provisioner's id is its identity's ``org_id``.

The miner keeps two indexes: pmap (provisioner -> iids it still owes; its
keys are the provisioners whose refs arrived and whose stream has not ended)
and cstor (iid -> merged case so far), with csize holding each stored case's
encoded size. A case is complete when no pmap entry still holds its iid; in
incremental mode it is yielded to the sink immediately and freed, in batch
mode all cases are merged into one log at the end.

The enclave accountant counts wire-encoding bytes without re-encoding
anything. Each segment is split by iid in one pass; a fragment costs its
arithmetic size (``size_of``), minus ``EMPTY_LOG_SIZE`` when part of its
case is already stored, because merging logs with disjoint events gives
``size(a) + size(b) - EMPTY_LOG_SIZE``. Freeing a case frees its csize entry,
and the batch log of n cases costs ``sum(csize) - EMPTY_LOG_SIZE * (n - 1)``.

A provisioner sends one cases_res per segment and marks its final one with
``"last": true``; a provisioner that owes nothing sends the single message
with body ``{"last": true}`` and an empty blob. On ``last`` the miner checks
that the sender owes nothing (else :class:`IncompleteDelivery`) and removes
its pmap entry, so a later cases_res from it is an
:class:`UnexpectedMessage`. The session finishes when every stream has
ended.

Provisioners never ship a byte before appraising the miner's attestation
evidence against their reference measurement, allow-list, and the nonce they
issued; a refused miner or rejected evidence aborts the provisioner before it
plans, wraps or seals anything.

Failure contract: a node ends ``done`` or ``aborted``, and only
:func:`_abort` sets ``aborted``, recording ``aborted_reason`` (the fault's
class name) and ``aborted_message`` (its text). Both roles handle a message
in :func:`_serve`, which decodes it, checks its session and sender, and
calls the role's ``_on_<kind>`` handler (a kind the role does not handle is
an :class:`UnexpectedMessage`). Handlers only raise. A :class:`ProtocolError`
(bad or out-of-order control input, a forged sender, an unowed case, a
refused miner: :class:`MinerRefused`), an ``EnclaveError`` (tampered
envelope, ``EvidenceRejected``, capacity cap), a ``WireError`` or
``ModelError`` (malformed segment, event id carried twice) or a
``SegmenterError`` (bad ``seg_size``) aborts the node; ``handle`` returns no
sends and the scheduler runs on. An aborted node drops every later message,
and an aborted miner frees its stored cases and stream keys. Once no
message is pending, the transport calls each node's ``on_quiet`` (a
deployment's timeout): a node still waiting aborts with :class:`Stalled`,
naming what it waits for (``awaiting cases from clinic``).
Program bugs (``UnderflowBug``, the scheduler's ``TransportError``) raise.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

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
    new_symmetric_key,
    open_segment,
    seal_segment,
    sign_stream,
    unframe,
    verify_evidence,
    wrap_key,
)
from .model import EventLog, ModelError, group_by_iid, iid_set, merge, merge_all
from .segmenter import SegmenterError, segment_event_log, size_of
from .wire import EMPTY_LOG_SIZE, WireError, decode_log, encode_log

# Ingest never extracts cases one by one; the name stays bound so that the
# benchmark's traced run (perfbench/spans.py) can wrap protocol.extract_case
# and count its calls.
from .model import extract_case  # noqa: F401

__all__ = [
    "ProtocolError",
    "NoProvisioners",
    "UnknownProvisioner",
    "DuplicateResponse",
    "UnexpectedIid",
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
    """A segment carried a case the miner was not owed by that sender."""


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

# Bytes of the freshness nonce a provisioner issues for the miner's evidence.
_NONCE_SIZE = 16

_MINER_KINDS = frozenset({KIND_CASES_REF_RES, KIND_CASES_RES})
_PROVISIONER_KINDS = frozenset({KIND_CASES_REF_REQ, KIND_CASES_REQ})

# What input from a peer can make a handler raise; see "Failure contract".
_FAULTS = (ProtocolError, EnclaveError, WireError, ModelError, SegmenterError)


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


def _serve(
    node, sender: str, payload: bytes, kinds: FrozenSet[str], release: Optional[Callable] = None
) -> List[Tuple[str, bytes]]:
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
        _abort(node, exc, release)
        return []


def _abort(node, exc: Exception, release: Optional[Callable] = None) -> None:
    """The only way into phase ``aborted`` (see "Failure contract")."""
    node.phase = "aborted"
    node.aborted_reason = type(exc).__name__
    node.aborted_message = str(exc)
    if release is not None:
        release()


def _stall(node, waiting: str, release: Optional[Callable] = None) -> None:
    """Both roles' ``on_quiet``: a node still waiting aborts with :class:`Stalled`."""
    if node.phase not in ("done", "aborted"):
        _abort(node, Stalled("awaiting " + waiting), release)


def _field(msg: Msg, key: str, kind: type):
    value = msg.body.get(key)
    if not isinstance(value, kind):
        raise UnexpectedMessage("%s without %s" % (msg.kind, key))
    return value


def _iids(msg: Msg) -> List[str]:
    iids = _field(msg, "iids", list)
    if not all(isinstance(iid, str) for iid in iids):
        raise UnexpectedMessage("%s iids must be strings" % msg.kind)
    return iids


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
        self.pmap: Dict[str, Set[str]] = {}
        self.cstor: Dict[str, EventLog] = {}
        self.csize: Dict[str, int] = {}
        self.stream_keys: Dict[str, Tuple[Tuple[bytes, bytes, bytes], int]] = {}
        self.nonces: Dict[str, bytes] = {}
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
        self.stream_keys.clear()
        self.accountant.account(-sum(self.csize.values()))
        self.cstor.clear()
        self.csize.clear()

    # -- lifecycle -------------------------------------------------------

    def bootstrap(self) -> List[Tuple[str, bytes]]:
        if self.phase != "init":
            raise UnexpectedMessage("bootstrap after start")
        self.phase = "awaiting_refs"
        body = {"identity_proof": self.config.org_proof}
        return [(p, self._msg(KIND_CASES_REF_REQ, body, b"")) for p in self.peers]

    def handle(self, sender: str, payload: bytes) -> List[Tuple[str, bytes]]:
        return _serve(self, sender, payload, _MINER_KINDS, self._release)

    def on_quiet(self) -> None:
        if self.phase == "awaiting_cases":
            waiting = "cases from " + ", ".join(sorted(self.pmap))
        else:  # a miner that never bootstrapped also awaits every peer's refs
            waiting = "refs from " + ", ".join(p for p in self.peers if p not in self.pmap)
        _stall(self, waiting, self._release)

    # -- handlers --------------------------------------------------------

    def _on_cases_ref_res(self, msg: Msg) -> List[Tuple[str, bytes]]:
        self.phase_label = "initialization"
        self._require_known(msg.sender)
        if self.phase != "awaiting_refs":
            raise DuplicateResponse("refs from %s after request fan-out" % msg.sender)
        if msg.sender in self.pmap:
            raise DuplicateResponse(msg.sender)
        if len(msg.blob) != _NONCE_SIZE:
            raise UnexpectedMessage("cases_ref_res nonce is not %d bytes" % _NONCE_SIZE)
        self.pmap[msg.sender] = set(_iids(msg))
        self.nonces[msg.sender] = msg.blob
        if len(self.pmap) != len(self.peers):
            return []
        self.phase = "awaiting_cases"
        self.phase_label = "attestation"
        out = []
        for p in self.peers:
            evidence = build_evidence(
                measurement=self.measurement,
                identity_proof=self.config.org_proof,
                k_pub=self.session_keys.k_pub,
                nonce=self.nonces[p],
            )
            body = {"seg_size": self.config.seg_size, "iids": sorted(self.pmap[p])}
            out.append((p, self._msg(KIND_CASES_REQ, body, evidence.to_bytes())))
        return out

    def _on_cases_res(self, msg: Msg) -> List[Tuple[str, bytes]]:
        self.phase_label = "transmission"
        self._require_known(msg.sender)
        if self.phase != "awaiting_cases":
            raise UnexpectedMessage("cases_res in phase %s" % self.phase)
        if msg.sender not in self.pmap:
            raise UnexpectedMessage("cases_res after completed stream from %s" % msg.sender)
        last = msg.body.get("last", False)
        if not isinstance(last, bool):
            raise UnexpectedMessage("cases_res last must be a boolean")
        if msg.blob:
            self._ingest_segment(msg.sender, msg.blob, last)
        elif not last:
            raise UnexpectedMessage("cases_res with neither an envelope nor last")
        if last:
            self.stream_keys.pop(msg.sender, None)
            owed = self.pmap.pop(msg.sender)
            if owed:
                raise IncompleteDelivery(
                    "%s ended its stream owing %s" % (msg.sender, ", ".join(sorted(owed)))
                )
            if not self.pmap:
                self._finish()
        return []

    def _ingest_segment(self, sender: str, envelope: bytes, last: bool) -> None:
        sender_key = self.config.provisioner_keys[sender]
        held, index = self.stream_keys.get(sender, (None, 0))
        plain, held = open_segment(
            envelope, self.session_keys, sender_key, self.config.session, sender, index, last, held
        )
        self.stream_keys[sender] = (held, index + 1)
        self.accountant.account(len(plain))
        owed = self.pmap[sender]
        try:
            segment = decode_log(plain)
            for iid, incoming in sorted(group_by_iid(segment).items()):
                if iid not in owed:
                    raise UnexpectedIid("%s from %s" % (iid, sender))
                old = self.cstor.get(iid)
                if old is None:
                    merged, delta = incoming, size_of(incoming)
                else:
                    merged, delta = merge(old, incoming), size_of(incoming) - EMPTY_LOG_SIZE
                self.accountant.account(delta)
                self.cstor[iid] = merged
                self.csize[iid] = self.csize.get(iid, 0) + delta
                owed.discard(iid)
                # The case is complete once no provisioner still owes it.
                if self.config.do_yield_cases and not any(
                    iid in other for other in self.pmap.values()
                ):
                    case = self.cstor.pop(iid)
                    self.accountant.account(-self.csize.pop(iid))
                    self.yield_count += 1
                    self.sink.on_case(case)
        finally:
            self.accountant.account(-len(plain))

    def _finish(self) -> None:
        self.phase_label = "computation"
        if not self.config.do_yield_cases:
            final = merge_all([self.cstor[iid] for iid in sorted(self.cstor)])
            final_size = sum(self.csize.values()) - EMPTY_LOG_SIZE * (len(self.csize) - 1)
            self.accountant.account(final_size)
            self.yield_count += 1
            self.sink.on_log(final)
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
        if not config.partition.is_partition():
            raise ValueError("partition must hold a single provisioner's events")
        self.config = config
        self.node_id = config.identity.org_id
        self.phase = "idle"
        self.nonce: Optional[bytes] = None
        self.segments_sent = 0
        self.miner_id: Optional[str] = None
        self.aborted_reason: Optional[str] = None
        self.aborted_message = ""

    def _msg(self, kind: str, body: Dict[str, object], blob: bytes) -> bytes:
        return Msg(kind, self.node_id, self.config.session, body, blob).encode()

    def handle(self, sender: str, payload: bytes) -> List[Tuple[str, bytes]]:
        return _serve(self, sender, payload, _PROVISIONER_KINDS)

    def on_quiet(self) -> None:
        _stall(self, "a case request from %s" % self.miner_id if self.miner_id else "a ref request")

    def _on_cases_ref_req(self, msg: Msg) -> List[Tuple[str, bytes]]:
        if self.phase != "idle":
            raise UnexpectedMessage("cases_ref_req in phase %s" % self.phase)
        proof = _field(msg, "identity_proof", str)
        if proof not in self.config.allowed_miners:
            raise MinerRefused("identity proof %r is not on the allow-list" % proof)
        self.miner_id = msg.sender
        self.nonce = os.urandom(_NONCE_SIZE)
        self.phase = "refs_sent"
        body = {"iids": sorted(iid_set(self.config.partition))}
        return [(msg.sender, self._msg(KIND_CASES_REF_RES, body, self.nonce))]

    def _on_cases_req(self, msg: Msg) -> List[Tuple[str, bytes]]:
        if self.phase != "refs_sent" or msg.sender != self.miner_id:
            raise UnexpectedMessage("cases_req in phase %s" % self.phase)
        seg_size, iids = _field(msg, "seg_size", int), _iids(msg)
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
        plan = segment_event_log(self.config.partition, iids, seg_size)
        k_sym = new_symmetric_key()
        wrapped = wrap_key(k_sym, k_pub)
        session, n = self.config.session, len(plan.segments)
        proof = sign_stream(self.config.identity, session, wrapped)
        sealed = [
            seal_segment(encode_log(s), k_sym, wrapped, proof, session, self.node_id, i, i == n - 1)
            for i, s in enumerate(plan.segments)
        ] or [b""]
        self.segments_sent = n
        self.phase = "done"
        ends = [{}] * (len(sealed) - 1) + [{"last": True}]
        return [(msg.sender, self._msg(KIND_CASES_RES, end, blob)) for end, blob in zip(ends, sealed)]
