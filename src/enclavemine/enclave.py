"""Simulated trusted-execution primitives: attestation, sealing, accounting.

Everything here runs in ordinary process memory; the trust chain is
simulated faithfully enough to exercise the protocol:

* Every signed, sealed or sent byte string is one :func:`frame` (the
  version, then each field behind its u32 length), which :func:`unframe`
  parses: envelopes, evidence, their signed payloads and messages.
* One Ed25519 keypair from a fixed seed, :data:`DEFAULT_ROOT`, plays the
  hardware manufacturer root, so every party in the simulation agrees on it.
  It signs all evidence: the framed measurement, identity proof, session
  public key and nonce. Verifiers hold the public half as their trust anchor.
* The *measurement* is the SHA-256 digest of a canonical build-manifest
  string (component, version, algorithm, sorted parameters). Verifiers
  compare it against a reference measurement they computed themselves.
  SHA-256 comes from ``cryptography``, the process's one crypto library:
  ``hashlib`` would load the system's libcrypto, a second OpenSSL beside
  the one ``cryptography`` bundles.
* Evidence carries custom data: the miner org's identity proof, the fresh
  session public key, and the verifier-supplied nonce. Binding the nonce
  into the signed payload gives replay freshness; this is an extension past
  the minimum verify contract and yields the extra rejection reason
  ``nonce_mismatch``.
* Each stream has one AES-GCM key, agreed with the session public key as
  in HPKE's DHKEM (RFC 9180, section 4.1): the sender draws an ephemeral
  X25519 pair, and the key is HKDF-SHA256 of the shared secret with the
  label, the ephemeral public key (the *share*) and the session public key
  as info (:func:`new_stream_key`); the session key's holder derives the
  same key from the share (:meth:`SessionKeys.stream_key`). The sender
  signs the framed session, sender id and share once with its org identity
  key (the sender proof, :func:`sign_stream`). Key material moves once, as
  in TLS 1.3: a stream's first envelope carries the share and the proof,
  every later one carries both fields empty, and the receiver verifies the
  proof and derives the key once per stream. AES-GCM authenticates the
  rest: each segment is encrypted with the framed session, sender id, the
  seg_size it was cut to, index in the stream and end mark as associated
  data, as in the sequence-numbered records of TLS 1.3 (RFC 8446, section
  5.3). A segment that is reordered, replayed, re-marked, sent after a lost
  one, cut to another seg_size or taken from another session fails its
  tag. Every signed or authenticated byte string is a frame, so no byte
  moves across a field boundary unnoticed.

Verification order for evidence: signature, measurement, org allow-list,
nonce; :func:`verify_evidence` raises :class:`EvidenceRejected` naming the
first failing check.
"""

from __future__ import annotations

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
    "DEFAULT_ROOT",
    "OrgIdentity",
    "SessionKeys",
    "AttestationEvidence",
    "build_evidence",
    "verify_evidence",
    "new_stream_key",
    "sign_stream",
    "seal_segment",
    "open_segment",
    "EnclaveAccountant",
]


class EnclaveError(Exception):
    pass


class AuthFailure(EnclaveError):
    """Envelope integrity or sender-proof verification failed."""


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

_STREAM_INFO = b"enclavemine-stream-key-v1"
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


def _sha256(data: bytes) -> bytes:
    digest = hashes.Hash(hashes.SHA256())
    digest.update(data)
    return digest.finalize()


def compute_measurement(manifest: BuildManifest) -> bytes:
    """32-byte digest of the canonical manifest string."""
    return _sha256(manifest.canonical())


def _raw(public_key) -> bytes:
    return public_key.public_bytes(serialization.Encoding.Raw, serialization.PublicFormat.Raw)


class OrgIdentity:
    """An Ed25519 signing identity: an organization's, for sender proofs, or
    the hardware root's, for evidence."""

    def __init__(self, org_id: str, seed: Optional[bytes] = None):
        self.org_id = org_id
        self._key = Ed25519PrivateKey.from_private_bytes(
            os.urandom(32) if seed is None else seed
        )
        self.public_bytes = _raw(self._key.public_key())

    def sign(self, data: bytes) -> bytes:
        return self._key.sign(data)

    @staticmethod
    def verify(public_bytes: bytes, signature: bytes, data: bytes) -> bool:
        try:
            Ed25519PublicKey.from_public_bytes(public_bytes).verify(signature, data)
            return True
        except (InvalidSignature, ValueError):
            return False


DEFAULT_ROOT = OrgIdentity(
    "hardware-root", _sha256(b"enclavemine simulated hardware root")
)


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


def _stream_key(shared: bytes, share: bytes, k_pub: bytes) -> bytes:
    """HKDF-SHA256 of an X25519 secret, bound to both public keys."""
    info = _STREAM_INFO + share + k_pub  # both 32 bytes, so the join is unambiguous
    return HKDF(algorithm=hashes.SHA256(), length=32, salt=None, info=info).derive(shared)


class SessionKeys:
    """Fresh per-session key-agreement pair, private half never leaves."""

    def __init__(self) -> None:
        self._k_priv = X25519PrivateKey.generate()
        self.k_pub = _raw(self._k_priv.public_key())

    def stream_key(self, share: bytes) -> bytes:
        """The stream key that :func:`new_stream_key` made with ``share``."""
        try:  # ValueError: not 32 bytes, or a low-order point
            shared = self._k_priv.exchange(X25519PublicKey.from_public_bytes(share))
        except ValueError as exc:
            raise AuthFailure("key share does not agree a key: %s" % exc) from exc
        return _stream_key(shared, share, self.k_pub)


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
) -> AttestationEvidence:
    unsigned = AttestationEvidence(measurement, identity_proof, k_pub, nonce, b"")
    return replace(unsigned, signature=DEFAULT_ROOT.sign(unsigned.signed_payload()))


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


def new_stream_key(k_pub: bytes) -> Tuple[bytes, bytes]:
    """A fresh stream key agreed with the session public key ``k_pub``, and
    the 32-byte share from which its holder derives the same key."""
    eph = X25519PrivateKey.generate()
    share = _raw(eph.public_key())
    return _stream_key(eph.exchange(X25519PublicKey.from_public_bytes(k_pub)), share, k_pub), share


def _stream_payload(session: str, sender: str, share: bytes) -> bytes:
    return frame(session.encode("utf-8"), sender.encode("utf-8"), share)


def _segment_ad(session: str, sender: str, seg_size: int, index: int, last: bool) -> bytes:
    """AES-GCM associated data: a segment's session, sender, the seg_size it
    was cut to (in decimal, as a case request may carry any int) and its place."""
    return frame(
        session.encode("utf-8"),
        sender.encode("utf-8"),
        b"%d" % seg_size,
        _INDEX.pack(index),
        bytes([last]),
    )


def sign_stream(sender: OrgIdentity, session: str, share: bytes) -> bytes:
    """The sender proof of one stream: ``sender`` signs the framed session,
    its org id and the stream's key share."""
    return sender.sign(_stream_payload(session, sender.org_id, share))


def seal_segment(
    segment_bytes: bytes,
    k_sym: bytes,
    share: bytes,
    proof: bytes,
    session: str,
    sender: str,
    seg_size: int,
    index: int,
    last: bool,
) -> bytes:
    """Produce the versioned envelope: key share, sender proof, ciphertext.

    ``k_sym`` and ``share`` are the stream's :func:`new_stream_key` and
    ``proof`` its :func:`sign_stream`; the share and proof ride in segment 0
    only, and later segments carry both fields empty. The ciphertext
    authenticates the segment's session, sender, ``seg_size``, ``index`` in
    the stream (from 0) and ``last`` end mark.
    """
    nonce = os.urandom(12)
    ad = _segment_ad(session, sender, seg_size, index, last)
    keyed = (share, proof) if index == 0 else (b"", b"")
    return frame(*keyed, nonce + AESGCM(k_sym).encrypt(nonce, segment_bytes, ad))


def open_segment(
    envelope: bytes,
    keys: SessionKeys,
    sender_public: bytes,
    session: str,
    sender: str,
    seg_size: int,
    index: int,
    last: bool,
    k_sym: Optional[bytes] = None,
) -> Tuple[bytes, bytes]:
    """Decrypt the segment at ``index`` of ``sender``'s stream, cut to
    ``seg_size`` and marked ``last`` or not; return the plaintext and the
    stream key.

    At index 0 the sender proof is verified and the key derived from the
    share, before any cipher is made. A later segment opens with ``k_sym``,
    the key segment 0 gave, and any key field it carries fails it.
    """
    try:
        share, proof, ct = unframe(envelope, 3)
    except ValueError as exc:
        raise AuthFailure("malformed envelope: %s" % exc) from exc
    if index == 0:
        if not OrgIdentity.verify(sender_public, proof, _stream_payload(session, sender, share)):
            raise AuthFailure("sender proof rejected")
        k_sym = keys.stream_key(share)
    elif share or proof:
        raise AuthFailure("key fields on segment %d of a stream" % index)
    if len(ct) < 12 + 16:
        raise AuthFailure("ciphertext too short")
    try:
        ad = _segment_ad(session, sender, seg_size, index, last)
        return AESGCM(k_sym).decrypt(ct[:12], ct[12:], ad), k_sym
    except InvalidTag as exc:
        raise AuthFailure("segment ciphertext failed authentication") from exc


class EnclaveAccountant:
    """Tracks simulated enclave memory in bytes: current, peak, optional cap,
    and ``mean_bytes``, the mean of the bytes held after each ``account``
    call (0.0 before the first), so bytes held only inside one delivered
    message count too."""

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = capacity
        self.current_bytes = 0
        self.peak_bytes = 0
        self._held_sum = 0
        self._calls = 0

    @property
    def mean_bytes(self) -> float:
        return self._held_sum / self._calls if self._calls else 0.0

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
        self._held_sum += nxt
        self._calls += 1
        if nxt > self.peak_bytes:
            self.peak_bytes = nxt
