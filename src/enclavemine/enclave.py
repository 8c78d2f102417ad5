"""Simulated trusted-execution primitives: attestation, sealing, accounting.

Everything here runs in ordinary process memory; the trust chain is
simulated faithfully enough to exercise the protocol:

* Every signed, sealed or sent byte string is one :func:`frame` (the
  version, then each field behind its u32 length), which :func:`unframe`
  parses: envelopes, evidence, their signed payloads and messages.
* A fixed Ed25519 keypair plays the hardware manufacturer root. Evidence is
  signed with it, verifiers hold the public half. The root signs the framed
  measurement, identity proof, session public key and nonce.
* The *measurement* is the SHA-256 digest of a canonical build-manifest
  string (component, version, algorithm, sorted parameters). Verifiers
  compare it against a reference measurement they computed themselves.
* Evidence carries custom data: the miner org's identity proof, the fresh
  session public key, and the verifier-supplied nonce. Binding the nonce
  into the signed payload gives replay freshness; this is an extension past
  the minimum verify contract and yields the extra rejection reason
  ``nonce_mismatch``.
* Segments are sealed with a hybrid envelope: a symmetric key (AES-GCM)
  encrypts the payload, and an X25519+HKDF key-encapsulation wraps that key
  to the session public key. A stream draws one symmetric key, encapsulates
  it once, and its sender signs the framed session, sender id and wrapped
  key once with its org identity key (the sender proof, :func:`sign_stream`).
  Every envelope of the stream carries the same wrapped key and proof, so
  each still opens on its own, and the receiver verifies the proof and
  unwraps the key once per stream. AES-GCM authenticates the rest: each
  segment is encrypted with the framed session, sender id, index in the
  stream and end mark as associated data, as in the sequence-numbered
  records of TLS 1.3 (RFC 8446, section 5.3). A segment that is reordered,
  replayed, re-marked, sent after a lost one or taken from another session
  fails its tag. Every signed or authenticated byte string is a frame, so
  no byte moves across a field boundary unnoticed.

Verification order for evidence: signature, measurement, org allow-list,
nonce; :func:`verify_evidence` raises :class:`EvidenceRejected` naming the
first failing check.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Tuple

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

__all__ = [
    "EnclaveError",
    "AuthFailure",
    "KeyUnwrapFailure",
    "CapacityExceeded",
    "EvidenceRejected",
    "UnderflowBug",
    "REASON_SIGNATURE",
    "REASON_MEASUREMENT",
    "REASON_ORG",
    "REASON_NONCE",
    "FRAME_VERSION",
    "frame",
    "unframe",
    "BuildManifest",
    "compute_measurement",
    "HardwareRoot",
    "DEFAULT_ROOT",
    "OrgIdentity",
    "SessionKeys",
    "AttestationEvidence",
    "build_evidence",
    "verify_evidence",
    "new_symmetric_key",
    "wrap_key",
    "unwrap_key",
    "sign_stream",
    "seal_segment",
    "open_segment",
    "EnclaveAccountant",
]


class EnclaveError(Exception):
    pass


class AuthFailure(EnclaveError):
    """Envelope integrity or sender-proof verification failed."""


class KeyUnwrapFailure(EnclaveError):
    """Wrapped symmetric key could not be recovered with the session key."""


class CapacityExceeded(EnclaveError):
    """Simulated enclave memory would exceed its configured capacity."""


class EvidenceRejected(EnclaveError):
    """Attestation evidence failed a check; the message is its ``REASON_*``."""


class UnderflowBug(AssertionError):
    """Accounting went negative; an internal bookkeeping bug, not an input error."""


REASON_SIGNATURE = "signature_invalid"
REASON_MEASUREMENT = "measurement_mismatch"
REASON_ORG = "org_not_authorized"
REASON_NONCE = "nonce_mismatch"

FRAME_VERSION = 1

_WRAP_INFO = b"enclavemine-key-wrap-v1"
_VERSION = struct.Struct(">H")
_LENGTH = struct.Struct(">I")
_INDEX = struct.Struct(">Q")


@dataclass(frozen=True)
class BuildManifest:
    """What the enclave claims to be running; digested into the measurement."""

    component: str
    version: str
    algorithm: str
    params: Tuple[Tuple[str, str], ...] = ()

    def canonical(self) -> bytes:
        parts = [self.component, self.version, self.algorithm]
        parts.extend("%s=%s" % (k, v) for k, v in sorted(self.params))
        return "\n".join(parts).encode("utf-8")


def compute_measurement(manifest: BuildManifest) -> bytes:
    """32-byte digest of the canonical manifest string."""
    return hashlib.sha256(manifest.canonical()).digest()


class OrgIdentity:
    """An Ed25519 signing identity: an organization's, for sender proofs, or
    the hardware root's, for evidence."""

    def __init__(self, org_id: str, seed: Optional[bytes] = None):
        self.org_id = org_id
        self._key = Ed25519PrivateKey.from_private_bytes(
            os.urandom(32) if seed is None else seed
        )
        self.public_bytes = self._key.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )

    def sign(self, data: bytes) -> bytes:
        return self._key.sign(data)

    @staticmethod
    def verify(public_bytes: bytes, signature: bytes, data: bytes) -> bool:
        try:
            Ed25519PublicKey.from_public_bytes(public_bytes).verify(signature, data)
            return True
        except (InvalidSignature, ValueError):
            return False


class HardwareRoot(OrgIdentity):
    """Simulated CPU-manufacturer signing identity.

    The default root derives its key from a fixed seed so every party in the
    simulation agrees on the manufacturer. Tests build alternate roots to
    model evidence signed by unknown hardware.
    """

    def __init__(self, seed: bytes):
        super().__init__("hardware-root", seed)


DEFAULT_ROOT = HardwareRoot(hashlib.sha256(b"enclavemine simulated hardware root").digest())


def frame(*fields: bytes) -> bytes:
    """The version, then each field behind its u32 length."""
    return _VERSION.pack(FRAME_VERSION) + b"".join(_LENGTH.pack(len(f)) + f for f in fields)


def unframe(data: bytes, count: int) -> List[bytes]:
    """The ``count`` fields of ``frame(*fields)``, or ``ValueError``."""
    fields, pos = [], _VERSION.size
    if data[:pos] != _VERSION.pack(FRAME_VERSION):
        raise ValueError("not a version %d frame" % FRAME_VERSION)
    for _ in range(count):
        if pos + _LENGTH.size > len(data):
            raise ValueError("frame truncated")
        (length,) = _LENGTH.unpack_from(data, pos)
        pos += _LENGTH.size + length
        fields.append(data[pos - length : pos])
    if pos != len(data):  # a field that overran the end, or trailing bytes
        raise ValueError("frame of %d bytes, its fields need %d" % (len(data), pos))
    return fields


class SessionKeys:
    """Fresh per-session key-encapsulation pair, private half never leaves."""

    def __init__(self) -> None:
        self._k_priv = X25519PrivateKey.generate()
        self.k_pub = self._k_priv.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )

    def exchange(self, peer_public: bytes) -> bytes:
        return self._k_priv.exchange(X25519PublicKey.from_public_bytes(peer_public))


@dataclass(frozen=True)
class AttestationEvidence:
    measurement: bytes
    identity_proof: str
    k_pub: bytes
    nonce: bytes
    signature: bytes

    def signed_payload(self) -> bytes:
        return frame(self.measurement, self.identity_proof.encode("utf-8"), self.k_pub, self.nonce)

    def to_bytes(self) -> bytes:
        proof = self.identity_proof.encode("utf-8")
        return frame(self.measurement, proof, self.k_pub, self.nonce, self.signature)

    @classmethod
    def from_bytes(cls, data: bytes) -> "AttestationEvidence":
        """Inverse of :meth:`to_bytes`; ``ValueError`` if malformed or not UTF-8."""
        measurement, proof, k_pub, nonce, signature = unframe(data, 5)
        return cls(measurement, proof.decode("utf-8"), k_pub, nonce, signature)


def build_evidence(
    measurement: bytes,
    identity_proof: str,
    k_pub: bytes,
    nonce: bytes,
    root: HardwareRoot = DEFAULT_ROOT,
) -> AttestationEvidence:
    unsigned = AttestationEvidence(measurement, identity_proof, k_pub, nonce, b"")
    return replace(unsigned, signature=root.sign(unsigned.signed_payload()))


def verify_evidence(
    evidence: AttestationEvidence,
    reference_measurement: bytes,
    allowed_orgs: Iterable[str],
    expected_nonce: Optional[bytes],
    root_public: Optional[bytes] = None,
) -> bytes:
    """Appraise evidence and return its ``k_pub``; :class:`EvidenceRejected`
    names the first check that fails.

    The nonce check always runs: evidence never matches ``expected_nonce``
    ``None``, the value of a verifier that issued no nonce.
    """
    if root_public is None:
        root_public = DEFAULT_ROOT.public_bytes
    if not OrgIdentity.verify(root_public, evidence.signature, evidence.signed_payload()):
        raise EvidenceRejected(REASON_SIGNATURE)
    if evidence.measurement != reference_measurement:
        raise EvidenceRejected(REASON_MEASUREMENT)
    if evidence.identity_proof not in set(allowed_orgs):
        raise EvidenceRejected(REASON_ORG)
    if evidence.nonce != expected_nonce:
        raise EvidenceRejected(REASON_NONCE)
    return evidence.k_pub


def new_symmetric_key() -> bytes:
    return AESGCM.generate_key(bit_length=256)


def _kek(shared: bytes) -> AESGCM:
    """The cipher of the key-encryption key derived from an X25519 secret."""
    return AESGCM(HKDF(algorithm=hashes.SHA256(), length=32, salt=None, info=_WRAP_INFO).derive(shared))


def wrap_key(k_sym: bytes, k_pub: bytes) -> bytes:
    """Encapsulate a symmetric key to the session public key.

    Layout: 32-byte ephemeral X25519 public key, 12-byte GCM nonce, then the
    AES-GCM ciphertext of the symmetric key under the derived wrapping key.
    """
    eph = X25519PrivateKey.generate()
    nonce = os.urandom(12)
    ct = _kek(eph.exchange(X25519PublicKey.from_public_bytes(k_pub))).encrypt(nonce, k_sym, None)
    eph_pub = eph.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )
    return eph_pub + nonce + ct


def unwrap_key(wrapped: bytes, session: SessionKeys) -> bytes:
    if len(wrapped) < 32 + 12 + 16:
        raise KeyUnwrapFailure("wrapped key too short")
    eph_pub, nonce, ct = wrapped[:32], wrapped[32:44], wrapped[44:]
    try:
        return _kek(session.exchange(eph_pub)).decrypt(nonce, ct, None)
    except (InvalidTag, ValueError) as exc:  # InvalidTag has no text of its own
        raise KeyUnwrapFailure("wrapped key does not open with this session's key") from exc


def _stream_payload(session: str, sender: str, wrapped: bytes) -> bytes:
    return frame(session.encode("utf-8"), sender.encode("utf-8"), wrapped)


def _segment_ad(session: str, sender: str, index: int, last: bool) -> bytes:
    """AES-GCM associated data: a segment's session, sender and place."""
    return frame(session.encode("utf-8"), sender.encode("utf-8"), _INDEX.pack(index), bytes([last]))


def sign_stream(sender: OrgIdentity, session: str, wrapped: bytes) -> bytes:
    """The sender proof of one stream: ``sender`` signs the framed session,
    its org id and the stream's wrapped key."""
    return sender.sign(_stream_payload(session, sender.org_id, wrapped))


def seal_segment(
    segment_bytes: bytes,
    k_sym: bytes,
    wrapped: bytes,
    proof: bytes,
    session: str,
    sender: str,
    index: int,
    last: bool,
) -> bytes:
    """Produce the versioned envelope: wrapped key, sender proof, ciphertext.

    ``wrapped`` is ``wrap_key(k_sym, k_pub)`` and ``proof`` its
    :func:`sign_stream`, both made once per stream and carried by each of
    its envelopes. The ciphertext authenticates the segment's session,
    sender, ``index`` in the stream (from 0) and ``last`` end mark.
    """
    nonce = os.urandom(12)
    ad = _segment_ad(session, sender, index, last)
    return frame(wrapped, proof, nonce + AESGCM(k_sym).encrypt(nonce, segment_bytes, ad))


def open_segment(
    envelope: bytes,
    keys: SessionKeys,
    sender_public: bytes,
    session: str,
    sender: str,
    index: int,
    last: bool,
    held: Optional[Tuple[bytes, bytes, bytes]] = None,
) -> Tuple[bytes, Tuple[bytes, bytes, bytes]]:
    """Check the sender proof, recover the key, and decrypt the segment at
    ``index`` of ``sender``'s stream, marked ``last`` or not.

    ``held`` is the ``(wrapped, proof, k_sym)`` record that an earlier
    envelope of the same stream opened with. Its key is used only if this
    envelope's wrapped and proof bytes equal ``held``'s; otherwise the proof
    is verified and the key unwrapped afresh, before any key is used.
    Returns the plaintext and the record this envelope opened with.
    """
    try:
        wrapped, proof, ct = unframe(envelope, 3)
    except ValueError as exc:
        raise AuthFailure("malformed envelope: %s" % exc) from exc
    if held is None or held[0] != wrapped or held[1] != proof:
        if not OrgIdentity.verify(sender_public, proof, _stream_payload(session, sender, wrapped)):
            raise AuthFailure("sender proof rejected")
        held = (wrapped, proof, unwrap_key(wrapped, keys))
    if len(ct) < 12 + 16:
        raise AuthFailure("ciphertext too short")
    try:
        ad = _segment_ad(session, sender, index, last)
        return AESGCM(held[2]).decrypt(ct[:12], ct[12:], ad), held
    except (InvalidTag, ValueError) as exc:  # ValueError: a key of the wrong length
        raise AuthFailure("segment ciphertext failed authentication") from exc


class EnclaveAccountant:
    """Tracks simulated enclave memory in bytes: current, peak, optional cap."""

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = capacity
        self.current_bytes = 0
        self.peak_bytes = 0

    def account(self, delta: int) -> None:
        nxt = self.current_bytes + delta
        if nxt < 0:
            raise UnderflowBug(
                "accounting underflow: %d%+d" % (self.current_bytes, delta)
            )
        if self.capacity is not None and nxt > self.capacity:
            raise CapacityExceeded(
                "%d bytes needed, capacity %d" % (nxt, self.capacity)
            )
        self.current_bytes = nxt
        if nxt > self.peak_bytes:
            self.peak_bytes = nxt
