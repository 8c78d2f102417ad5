"""Case-synchronizing protocol between a secure miner and provisioners.

Message flow per session (control messages are JSON, segment payloads ride
inside sealed envelopes, base64-wrapped at the message layer):

1. miner -> all provisioners   cases_ref_req {identity_proof}
2. provisioner -> miner        cases_ref_res {iids}
3. miner -> all provisioners   cases_req {seg_size, iids}   (after all refs)
4. provisioner -> miner        evidence_req {nonce}
5. miner -> provisioner        evidence_res {evidence}
6. provisioner -> miner        cases_res {seq, total, envelope}  (stream)

The miner keeps three indexes: cid_map (iid -> provisioners still owing that
case), pmap (provisioner -> iids still owed), and cstor (iid -> merged case
so far), with csize holding each stored case's encoded size. A case is
complete when its cid_map entry empties; in incremental mode it is yielded
to the sink immediately and freed, in batch mode all cases are merged into
one log at the end.

The enclave accountant counts wire-encoding bytes without re-encoding
anything. Each segment is split by iid in one pass; a fragment costs its
arithmetic size (``size_of``), minus ``EMPTY_LOG_SIZE`` when part of its
case is already stored, because merging logs with disjoint events gives
``size(a) + size(b) - EMPTY_LOG_SIZE``. Freeing a case frees its csize entry,
and the batch log of n cases costs ``sum(csize) - EMPTY_LOG_SIZE * (n - 1)``.

Segment streams are terminated by a declared total in every cases_res
header; a zero-case stream is one header-only message with total 0.

Provisioners never ship a byte before appraising the miner's attestation
evidence against their reference measurement, allow-list, and the nonce they
issued. Rejected evidence ends the session with nothing sent.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .enclave import (
    AttestationEvidence,
    BuildManifest,
    EnclaveAccountant,
    OrgIdentity,
    SessionKeys,
    TrustDecision,
    build_evidence,
    compute_measurement,
    new_symmetric_key,
    open_segment,
    seal_segment,
    verify_evidence,
)
from .model import EventLog, group_by_iid, iid_set, merge, merge_all
from .segmenter import segment_event_log, size_of
from .wire import EMPTY_LOG_SIZE, decode_log, encode_log

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
    "SessionAborted",
    "Msg",
    "MinerConfig",
    "SecureMiner",
    "ProvisionerConfig",
    "Provisioner",
    "KIND_CASES_REF_REQ",
    "KIND_CASES_REF_RES",
    "KIND_CASES_REQ",
    "KIND_EVIDENCE_REQ",
    "KIND_EVIDENCE_RES",
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
    """All declared segments arrived yet some case is still unmerged."""


class SessionAborted(ProtocolError):
    pass


KIND_CASES_REF_REQ = "cases_ref_req"
KIND_CASES_REF_RES = "cases_ref_res"
KIND_CASES_REQ = "cases_req"
KIND_EVIDENCE_REQ = "evidence_req"
KIND_EVIDENCE_RES = "evidence_res"
KIND_CASES_RES = "cases_res"

_KINDS = {
    KIND_CASES_REF_REQ,
    KIND_CASES_REF_RES,
    KIND_CASES_REQ,
    KIND_EVIDENCE_REQ,
    KIND_EVIDENCE_RES,
    KIND_CASES_RES,
}


@dataclass(frozen=True)
class Msg:
    kind: str
    sender: str
    session: str
    body: Dict[str, object] = field(default_factory=dict)

    def encode(self) -> bytes:
        doc = {"kind": self.kind, "sender": self.sender, "session": self.session, "body": self.body}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def decode(cls, payload: bytes) -> "Msg":
        try:
            doc = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise UnexpectedMessage("unparsable message: %s" % exc) from exc
        kind = doc.get("kind")
        if kind not in _KINDS:
            raise UnexpectedMessage("unknown message kind %r" % kind)
        return cls(kind=kind, sender=doc["sender"], session=doc["session"], body=doc.get("body", {}))


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


@dataclass
class MinerConfig:
    miner_id: str
    org_proof: str
    provisioner_ids: Tuple[str, ...]
    seg_size: int
    do_yield_cases: bool
    manifest: BuildManifest
    session: str
    provisioner_keys: Dict[str, bytes]
    capacity: Optional[int] = None


class SecureMiner:
    """Miner-side state machine; all handlers run run-to-completion."""

    def __init__(self, config: MinerConfig, sink) -> None:
        if not config.provisioner_ids:
            raise NoProvisioners("at least one provisioner required")
        if len(set(config.provisioner_ids)) != len(config.provisioner_ids):
            raise ProtocolError("provisioner ids must be unique")
        self.config = config
        self.sink = sink
        self.node_id = config.miner_id
        self.session_keys = SessionKeys()
        self.measurement = compute_measurement(config.manifest)
        self.accountant = EnclaveAccountant(capacity=config.capacity)
        self.phase = "init"
        self.phase_label = "initialization"
        self.cid_map: Dict[str, Set[str]] = {}
        self.pmap: Dict[str, Set[str]] = {}
        self.cstor: Dict[str, EventLog] = {}
        self.csize: Dict[str, int] = {}
        self.refs_received: Set[str] = set()
        self.evidence_served: Set[str] = set()
        self.seg_total: Dict[str, Optional[int]] = {p: None for p in config.provisioner_ids}
        self.seg_received: Dict[str, int] = {p: 0 for p in config.provisioner_ids}
        self.yield_count = 0
        self.aborted_reason: Optional[str] = None

    # -- helpers ---------------------------------------------------------

    def _msg(self, kind: str, body: Dict[str, object]) -> bytes:
        return Msg(kind, self.node_id, self.config.session, body).encode()

    def _require_session(self, msg: Msg) -> None:
        if msg.session != self.config.session:
            raise UnexpectedMessage(
                "session %r does not match %r" % (msg.session, self.config.session)
            )

    def _require_known(self, sender: str) -> None:
        if sender not in self.config.provisioner_ids:
            raise UnknownProvisioner(sender)

    def _abort(self, exc: ProtocolError) -> None:
        self.phase = "aborted"
        self.aborted_reason = type(exc).__name__
        raise exc

    # -- lifecycle -------------------------------------------------------

    def bootstrap(self) -> List[Tuple[str, bytes]]:
        if self.phase != "init":
            raise UnexpectedMessage("bootstrap after start")
        self.phase = "awaiting_refs"
        body = {"identity_proof": self.config.org_proof}
        return [(p, self._msg(KIND_CASES_REF_REQ, body)) for p in self.config.provisioner_ids]

    def handle(self, sender: str, payload: bytes) -> List[Tuple[str, bytes]]:
        if self.phase == "aborted":
            raise SessionAborted(self.aborted_reason or "session aborted")
        msg = Msg.decode(payload)
        self._require_session(msg)
        if msg.sender != sender:
            raise UnexpectedMessage("sender %r forged as %r" % (sender, msg.sender))
        if msg.kind == KIND_CASES_REF_RES:
            return self._on_cases_ref_res(msg)
        if msg.kind == KIND_EVIDENCE_REQ:
            return self._on_evidence_req(msg)
        if msg.kind == KIND_CASES_RES:
            return self._on_cases_res(msg)
        raise UnexpectedMessage("miner cannot handle %s" % msg.kind)

    # -- handlers --------------------------------------------------------

    def _on_cases_ref_res(self, msg: Msg) -> List[Tuple[str, bytes]]:
        self.phase_label = "initialization"
        self._require_known(msg.sender)
        if self.phase != "awaiting_refs":
            raise DuplicateResponse("refs from %s after request fan-out" % msg.sender)
        if msg.sender in self.refs_received:
            raise DuplicateResponse(msg.sender)
        iids = msg.body.get("iids")
        if not isinstance(iids, list):
            raise UnexpectedMessage("cases_ref_res missing iid list")
        self.refs_received.add(msg.sender)
        self.pmap[msg.sender] = set(iids)
        for iid in iids:
            self.cid_map.setdefault(iid, set()).add(msg.sender)
        if self.refs_received != set(self.config.provisioner_ids):
            return []
        self.phase = "awaiting_cases"
        out = []
        for p in self.config.provisioner_ids:
            body = {"seg_size": self.config.seg_size, "iids": sorted(self.pmap.get(p, ()))}
            out.append((p, self._msg(KIND_CASES_REQ, body)))
        return out

    def _on_evidence_req(self, msg: Msg) -> List[Tuple[str, bytes]]:
        self.phase_label = "attestation"
        self._require_known(msg.sender)
        if self.phase != "awaiting_cases":
            raise UnexpectedMessage("evidence_req in phase %s" % self.phase)
        nonce = msg.body.get("nonce")
        if not isinstance(nonce, str):
            raise UnexpectedMessage("evidence_req missing nonce")
        evidence = build_evidence(
            measurement=self.measurement,
            identity_proof=self.config.org_proof,
            k_pub=self.session_keys.k_pub,
            nonce=bytes.fromhex(nonce),
        )
        self.evidence_served.add(msg.sender)
        return [(msg.sender, self._msg(KIND_EVIDENCE_RES, {"evidence": evidence.to_dict()}))]

    def _on_cases_res(self, msg: Msg) -> List[Tuple[str, bytes]]:
        self.phase_label = "transmission"
        self._require_known(msg.sender)
        if self.phase != "awaiting_cases":
            raise UnexpectedMessage("cases_res in phase %s" % self.phase)
        if msg.sender not in self.evidence_served:
            self._abort(UnexpectedMessage("cases_res from %s before attestation" % msg.sender))
        total = msg.body.get("total")
        if not isinstance(total, int) or total < 0:
            raise UnexpectedMessage("cases_res without declared total")
        prior = self.seg_total[msg.sender]
        if prior is None:
            self.seg_total[msg.sender] = total
        elif prior != total:
            self._abort(UnexpectedMessage("inconsistent segment total from %s" % msg.sender))
        elif self.seg_received[msg.sender] >= prior:
            self._abort(UnexpectedMessage("cases_res after completed stream from %s" % msg.sender))
        if total > 0:
            envelope_b64 = msg.body.get("envelope")
            if not isinstance(envelope_b64, str):
                raise UnexpectedMessage("cases_res missing envelope")
            self._ingest_segment(msg.sender, _unb64(envelope_b64))
            self.seg_received[msg.sender] += 1
        elif self.pmap.get(msg.sender):
            self._abort(
                IncompleteDelivery("%s declared an empty stream while owing cases" % msg.sender)
            )
        if self._all_streams_done():
            self._finish()
        return []

    def _ingest_segment(self, sender: str, envelope: bytes) -> None:
        sender_key = self.config.provisioner_keys[sender]
        plain = open_segment(envelope, self.session_keys, sender_key)
        self.accountant.account(len(plain))
        try:
            segment = decode_log(plain)
            for iid, incoming in sorted(group_by_iid(segment).items()):
                if iid not in self.pmap.get(sender, ()):
                    self._abort(UnexpectedIid("%s from %s" % (iid, sender)))
                old = self.cstor.get(iid)
                if old is None:
                    merged, delta = incoming, size_of(incoming)
                else:
                    merged, delta = merge(old, incoming), size_of(incoming) - EMPTY_LOG_SIZE
                self.accountant.account(delta)
                self.cstor[iid] = merged
                self.csize[iid] = self.csize.get(iid, 0) + delta
                self.pmap[sender].discard(iid)
                self.cid_map[iid].discard(sender)
                if not self.cid_map[iid]:
                    del self.cid_map[iid]
                    if self.config.do_yield_cases:
                        case = self.cstor.pop(iid)
                        self.accountant.account(-self.csize.pop(iid))
                        self.yield_count += 1
                        self.sink.on_case(case)
        finally:
            self.accountant.account(-len(plain))

    def _all_streams_done(self) -> bool:
        return all(
            self.seg_total[p] is not None and self.seg_received[p] == self.seg_total[p]
            for p in self.config.provisioner_ids
        )

    def _finish(self) -> None:
        self.phase_label = "computation"
        if self.cid_map:
            owing = sorted(self.cid_map)
            self._abort(IncompleteDelivery("cases never completed: %s" % ", ".join(owing)))
        if not self.config.do_yield_cases:
            final = merge_all([self.cstor[iid] for iid in sorted(self.cstor)])
            final_size = sum(self.csize.values()) - EMPTY_LOG_SIZE * (len(self.csize) - 1)
            self.accountant.account(final_size)
            self.yield_count += 1
            self.sink.on_log(final)
            self.accountant.account(-final_size)
            self.accountant.account(-sum(self.csize.values()))
            self.cstor.clear()
            self.csize.clear()
        self.phase = "done"


@dataclass
class ProvisionerConfig:
    org_id: str
    partition: EventLog
    allowed_miners: FrozenSet[str]
    reference_measurement: bytes
    identity: OrgIdentity
    session: str
    root_public: Optional[bytes] = None
    strict_oversize: bool = False


class Provisioner:
    """Provisioner-side state machine: advertise, attest the miner, stream."""

    def __init__(self, config: ProvisionerConfig) -> None:
        if not config.partition.is_partition():
            raise ValueError("partition must hold a single provisioner's events")
        self.config = config
        self.node_id = config.org_id
        self.phase = "idle"
        self.pending: Optional[Tuple[int, Tuple[str, ...]]] = None
        self.nonce: Optional[bytes] = None
        self.trust: Optional[TrustDecision] = None
        self.segments_sent = 0
        self.miner_id: Optional[str] = None

    def _msg(self, kind: str, body: Dict[str, object]) -> bytes:
        return Msg(kind, self.node_id, self.config.session, body).encode()

    def handle(self, sender: str, payload: bytes) -> List[Tuple[str, bytes]]:
        msg = Msg.decode(payload)
        if msg.session != self.config.session:
            raise UnexpectedMessage(
                "session %r does not match %r" % (msg.session, self.config.session)
            )
        if msg.sender != sender:
            raise UnexpectedMessage("sender %r forged as %r" % (sender, msg.sender))
        if msg.kind == KIND_CASES_REF_REQ:
            return self._on_cases_ref_req(msg)
        if msg.kind == KIND_CASES_REQ:
            return self._on_cases_req(msg)
        if msg.kind == KIND_EVIDENCE_RES:
            return self._on_evidence_res(msg)
        raise UnexpectedMessage("provisioner cannot handle %s" % msg.kind)

    def _on_cases_ref_req(self, msg: Msg) -> List[Tuple[str, bytes]]:
        if self.phase != "idle":
            raise UnexpectedMessage("cases_ref_req in phase %s" % self.phase)
        proof = msg.body.get("identity_proof")
        if proof not in self.config.allowed_miners:
            self.phase = "refused"
            return []
        self.miner_id = msg.sender
        self.phase = "refs_sent"
        iids = sorted(iid_set(self.config.partition))
        return [(msg.sender, self._msg(KIND_CASES_REF_RES, {"iids": iids}))]

    def _on_cases_req(self, msg: Msg) -> List[Tuple[str, bytes]]:
        if self.phase != "refs_sent" or msg.sender != self.miner_id:
            raise UnexpectedMessage("cases_req in phase %s" % self.phase)
        seg_size = msg.body.get("seg_size")
        iids = msg.body.get("iids")
        if not isinstance(seg_size, int) or not isinstance(iids, list):
            raise UnexpectedMessage("cases_req missing seg_size or iids")
        self.pending = (seg_size, tuple(iids))
        self.nonce = os.urandom(16)
        self.phase = "awaiting_evidence"
        return [(msg.sender, self._msg(KIND_EVIDENCE_REQ, {"nonce": self.nonce.hex()}))]

    def _on_evidence_res(self, msg: Msg) -> List[Tuple[str, bytes]]:
        if self.phase != "awaiting_evidence" or msg.sender != self.miner_id:
            raise UnexpectedMessage("evidence_res in phase %s" % self.phase)
        raw = msg.body.get("evidence")
        if not isinstance(raw, dict):
            raise UnexpectedMessage("evidence_res missing evidence")
        evidence = AttestationEvidence.from_dict(raw)
        self.trust = verify_evidence(
            evidence,
            reference_measurement=self.config.reference_measurement,
            allowed_orgs=self.config.allowed_miners,
            expected_nonce=self.nonce,
            root_public=self.config.root_public,
        )
        if not self.trust.trusted:
            self.phase = "rejected"
            return []
        assert self.pending is not None
        seg_size, iids = self.pending
        plan = segment_event_log(
            self.config.partition, iids, seg_size, strict=self.config.strict_oversize
        )
        k_sym = new_symmetric_key()
        out: List[Tuple[str, bytes]] = []
        total = len(plan.segments)
        if total == 0:
            out.append((msg.sender, self._msg(KIND_CASES_RES, {"seq": 0, "total": 0})))
        for seq, segment in enumerate(plan.segments):
            envelope = seal_segment(
                encode_log(segment), k_sym, self.trust.k_pub, self.config.identity
            )
            body = {"seq": seq, "total": total, "envelope": _b64(envelope)}
            out.append((msg.sender, self._msg(KIND_CASES_RES, body)))
        self.segments_sent = total
        self.phase = "done"
        return out
