"""Simulated trusted-execution primitives: attestation, sealing, accounting.

Everything here runs in ordinary process memory; the trust chain is
simulated faithfully enough to exercise the protocol:

* A fixed Ed25519 keypair plays the hardware manufacturer root. Evidence is
  signed with it, verifiers hold the public half.
* The *measurement* is the SHA-256 digest of a canonical build-manifest
  string (component, version, algorithm, sorted parameters). Verifiers
  compare it against a reference measurement they computed themselves.
* Evidence carries custom data: the miner org's identity proof, the fresh
  session public key, and the verifier-supplied nonce. Binding the nonce
  into the signed payload gives replay freshness; this is an extension past
  the minimum verify contract and yields the extra rejection reason
  ``nonce_mismatch``.
* Segments are sealed with a hybrid envelope: a fresh symmetric key (AES-GCM)
  encrypts the payload, an X25519+HKDF key-encapsulation wraps that key to
  the session public key, and the sender signs the envelope body with its
  org identity key (the sender proof).

Verification order for evidence: signature, measurement, org allow-list,
nonce. The first failing check names the rejection.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

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
    "UnderflowBug",
    "REASON_SIGNATURE",
    "REASON_MEASUREMENT",
    "REASON_ORG",
    "REASON_NONCE",
    "ENVELOPE_VERSION",
    "BuildManifest",
    "compute_measurement",
    "HardwareRoot",
    "DEFAULT_ROOT",
    "OrgIdentity",
    "SessionKeys",
    "AttestationEvidence",
    "build_evidence",
    "TrustDecision",
    "verify_evidence",
    "new_symmetric_key",
    "wrap_key",
    "unwrap_key",
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


class UnderflowBug(AssertionError):
    """Accounting went negative; an internal bookkeeping bug, not an input error."""


REASON_SIGNATURE = "signature_invalid"
REASON_MEASUREMENT = "measurement_mismatch"
REASON_ORG = "org_not_authorized"
REASON_NONCE = "nonce_mismatch"

ENVELOPE_VERSION = 1

_WRAP_INFO = b"enclavemine-key-wrap-v1"


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


class HardwareRoot:
    """Simulated CPU-manufacturer signing identity.

    The default root derives its key from a fixed seed so every party in the
    simulation agrees on the manufacturer. Tests build alternate roots to
    model evidence signed by unknown hardware.
    """

    def __init__(self, seed: bytes):
        if len(seed) != 32:
            raise ValueError("root seed must be 32 bytes")
        self._key = Ed25519PrivateKey.from_private_bytes(seed)
        self.public_bytes = self._key.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )

    def sign(self, data: bytes) -> bytes:
        return self._key.sign(data)


DEFAULT_ROOT = HardwareRoot(hashlib.sha256(b"enclavemine simulated hardware root").digest())


class OrgIdentity:
    """An organization's signing identity used for sender proofs."""

    def __init__(self, org_id: str, seed: Optional[bytes] = None):
        self.org_id = org_id
        if seed is None:
            seed = os.urandom(32)
        self._key = Ed25519PrivateKey.from_private_bytes(seed)
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
        return _evidence_payload(self.measurement, self.identity_proof, self.k_pub, self.nonce)

    def to_dict(self) -> Dict[str, str]:
        return {
            "measurement": self.measurement.hex(),
            "identity_proof": self.identity_proof,
            "k_pub": self.k_pub.hex(),
            "nonce": self.nonce.hex(),
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "AttestationEvidence":
        if not isinstance(data["identity_proof"], str):
            raise TypeError("identity_proof must be a string")
        return cls(
            measurement=bytes.fromhex(data["measurement"]),
            identity_proof=data["identity_proof"],
            k_pub=bytes.fromhex(data["k_pub"]),
            nonce=bytes.fromhex(data["nonce"]),
            signature=bytes.fromhex(data["signature"]),
        )


def _evidence_payload(measurement: bytes, identity_proof: str, k_pub: bytes, nonce: bytes) -> bytes:
    proof = identity_proof.encode("utf-8")
    return b"".join(
        [
            struct.pack(">H", ENVELOPE_VERSION),
            measurement,
            struct.pack(">H", len(proof)),
            proof,
            struct.pack(">H", len(k_pub)),
            k_pub,
            struct.pack(">H", len(nonce)),
            nonce,
        ]
    )


def build_evidence(
    measurement: bytes,
    identity_proof: str,
    k_pub: bytes,
    nonce: bytes,
    root: HardwareRoot = DEFAULT_ROOT,
) -> AttestationEvidence:
    payload = _evidence_payload(measurement, identity_proof, k_pub, nonce)
    return AttestationEvidence(
        measurement=measurement,
        identity_proof=identity_proof,
        k_pub=k_pub,
        nonce=nonce,
        signature=root.sign(payload),
    )


@dataclass(frozen=True)
class TrustDecision:
    trusted: bool
    reason: Optional[str] = None
    k_pub: Optional[bytes] = None


def verify_evidence(
    evidence: AttestationEvidence,
    reference_measurement: bytes,
    allowed_orgs: Iterable[str],
    expected_nonce: Optional[bytes] = None,
    root_public: Optional[bytes] = None,
) -> TrustDecision:
    """Appraise evidence; trusted only when every check passes."""
    if root_public is None:
        root_public = DEFAULT_ROOT.public_bytes
    try:
        Ed25519PublicKey.from_public_bytes(root_public).verify(
            evidence.signature, evidence.signed_payload()
        )
    except (InvalidSignature, ValueError, struct.error):  # struct: a field too long to sign
        return TrustDecision(False, REASON_SIGNATURE)
    if evidence.measurement != reference_measurement:
        return TrustDecision(False, REASON_MEASUREMENT)
    if evidence.identity_proof not in set(allowed_orgs):
        return TrustDecision(False, REASON_ORG)
    if expected_nonce is not None and evidence.nonce != expected_nonce:
        return TrustDecision(False, REASON_NONCE)
    return TrustDecision(True, None, evidence.k_pub)


def new_symmetric_key() -> bytes:
    return AESGCM.generate_key(bit_length=256)


def wrap_key(k_sym: bytes, k_pub: bytes) -> bytes:
    """Encapsulate a symmetric key to the session public key.

    Layout: 32-byte ephemeral X25519 public key, 12-byte GCM nonce, then the
    AES-GCM ciphertext of the symmetric key under the derived wrapping key.
    """
    eph = X25519PrivateKey.generate()
    shared = eph.exchange(X25519PublicKey.from_public_bytes(k_pub))
    kek = HKDF(algorithm=hashes.SHA256(), length=32, salt=None, info=_WRAP_INFO).derive(shared)
    nonce = os.urandom(12)
    ct = AESGCM(kek).encrypt(nonce, k_sym, None)
    eph_pub = eph.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )
    return eph_pub + nonce + ct


def unwrap_key(wrapped: bytes, session: SessionKeys) -> bytes:
    if len(wrapped) < 32 + 12 + 16:
        raise KeyUnwrapFailure("wrapped key too short")
    eph_pub, nonce, ct = wrapped[:32], wrapped[32:44], wrapped[44:]
    try:
        shared = session.exchange(eph_pub)
        kek = HKDF(algorithm=hashes.SHA256(), length=32, salt=None, info=_WRAP_INFO).derive(shared)
        return AESGCM(kek).decrypt(nonce, ct, None)
    except (InvalidTag, ValueError) as exc:
        raise KeyUnwrapFailure(str(exc)) from exc


def _pack_field(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def seal_segment(segment_bytes: bytes, k_sym: bytes, k_pub: bytes, sender: OrgIdentity) -> bytes:
    """Produce the versioned envelope: wrapped key, sender proof, ciphertext.

    The sender proof signs the wrapped key and ciphertext together so neither
    can be swapped out without detection.
    """
    wrapped = wrap_key(k_sym, k_pub)
    nonce = os.urandom(12)
    ct = nonce + AESGCM(k_sym).encrypt(nonce, segment_bytes, None)
    proof = sender.sign(wrapped + ct)
    return b"".join(
        [struct.pack(">H", ENVELOPE_VERSION), _pack_field(wrapped), _pack_field(proof), _pack_field(ct)]
    )


def _split_envelope(envelope: bytes) -> Tuple[bytes, bytes, bytes]:
    if len(envelope) < 2:
        raise AuthFailure("envelope truncated")
    (version,) = struct.unpack(">H", envelope[:2])
    if version != ENVELOPE_VERSION:
        raise AuthFailure("unsupported envelope version %d" % version)
    pos = 2
    fields = []
    for _ in range(3):
        if pos + 4 > len(envelope):
            raise AuthFailure("envelope truncated")
        (length,) = struct.unpack(">I", envelope[pos : pos + 4])
        pos += 4
        if pos + length > len(envelope):
            raise AuthFailure("envelope truncated")
        fields.append(envelope[pos : pos + length])
        pos += length
    if pos != len(envelope):
        raise AuthFailure("trailing bytes after envelope")
    return fields[0], fields[1], fields[2]


def open_segment(envelope: bytes, session: SessionKeys, sender_public: bytes) -> bytes:
    """Verify the sender proof, unwrap the key, and decrypt the segment."""
    wrapped, proof, ct = _split_envelope(envelope)
    if not OrgIdentity.verify(sender_public, proof, wrapped + ct):
        raise AuthFailure("sender proof rejected")
    k_sym = unwrap_key(wrapped, session)
    if len(ct) < 12 + 16:
        raise AuthFailure("ciphertext too short")
    try:
        return AESGCM(k_sym).decrypt(ct[:12], ct[12:], None)
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
