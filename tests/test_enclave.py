"""Attestation, sealing, and byte accounting for the simulated enclave."""

import dataclasses
import hashlib
import os
import struct
import unittest
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enclavemine import enclave
from enclavemine.enclave import (
    DEFAULT_ROOT,
    FRAME_VERSION,
    REASON_MEASUREMENT,
    REASON_NONCE,
    REASON_ORG,
    REASON_SIGNATURE,
    AttestationEvidence,
    AuthFailure,
    BuildManifest,
    CapacityExceeded,
    EnclaveAccountant,
    HardwareRoot,
    KeyUnwrapFailure,
    OrgIdentity,
    SessionKeys,
    UnderflowBug,
    build_evidence,
    compute_measurement,
    new_symmetric_key,
    open_segment,
    seal_segment,
    unwrap_key,
    verify_evidence,
    wrap_key,
)


class MeasurementTest(unittest.TestCase):
    def test_digest_matches_independent_computation(self):
        manifest = BuildManifest(
            component="miner",
            version="1.2",
            algorithm="heuristics",
            params=(("b", "2"), ("a", "1")),
        )
        # Independent oracle: the documented canonical string, hashed here.
        expected = hashlib.sha256(b"miner\n1.2\nheuristics\na=1\nb=2").digest()
        self.assertEqual(compute_measurement(manifest), expected)
        self.assertEqual(len(expected), 32)

    def test_param_order_is_irrelevant(self):
        a = BuildManifest("m", "1", "x", (("k1", "v1"), ("k2", "v2")))
        b = BuildManifest("m", "1", "x", (("k2", "v2"), ("k1", "v1")))
        self.assertEqual(compute_measurement(a), compute_measurement(b))

    def test_any_field_changes_the_measurement(self):
        base = BuildManifest("m", "1", "x", (("k", "v"),))
        variants = [
            BuildManifest("m2", "1", "x", (("k", "v"),)),
            BuildManifest("m", "2", "x", (("k", "v"),)),
            BuildManifest("m", "1", "y", (("k", "v"),)),
            BuildManifest("m", "1", "x", (("k", "w"),)),
        ]
        digests = {compute_measurement(v) for v in variants}
        self.assertEqual(len(digests), 4)
        self.assertNotIn(compute_measurement(base), digests)


def _fresh_evidence(nonce=b"n" * 16, org="org:miner", root=DEFAULT_ROOT):
    manifest = BuildManifest("miner", "1", "heuristics")
    session = SessionKeys()
    ev = build_evidence(
        compute_measurement(manifest), org, session.k_pub, nonce, root=root
    )
    return manifest, session, ev


class EvidenceTest(unittest.TestCase):
    def setUp(self):
        self.nonce = os.urandom(16)
        self.manifest, self.session, self.evidence = _fresh_evidence(self.nonce)
        self.reference = compute_measurement(self.manifest)

    def appraise(self, ev, **kw):
        kw.setdefault("reference_measurement", self.reference)
        kw.setdefault("allowed_orgs", ["org:miner"])
        kw.setdefault("expected_nonce", self.nonce)
        return verify_evidence(ev, **kw)

    def test_good_evidence_is_trusted(self):
        decision = self.appraise(self.evidence)
        self.assertTrue(decision.trusted)
        self.assertIsNone(decision.reason)
        self.assertEqual(decision.k_pub, self.session.k_pub)

    def test_tampered_measurement_fails_signature_first(self):
        forged = AttestationEvidence(
            measurement=os.urandom(32),
            identity_proof=self.evidence.identity_proof,
            k_pub=self.evidence.k_pub,
            nonce=self.evidence.nonce,
            signature=self.evidence.signature,
        )
        decision = self.appraise(forged)
        self.assertFalse(decision.trusted)
        self.assertEqual(decision.reason, REASON_SIGNATURE)

    def test_field_too_long_to_sign_fails_signature(self):
        forged = dataclasses.replace(self.evidence, identity_proof="x" * 0x10000)
        decision = self.appraise(forged)
        self.assertEqual((decision.trusted, decision.reason), (False, REASON_SIGNATURE))

    def test_identity_proof_bytes_that_are_not_utf8_are_malformed(self):
        # Evidence arrives as bytes; a proof that is not UTF-8 never becomes
        # a string, so it cannot reach the verifier.
        ev = self.evidence
        data = _framed(ev.measurement, b"org:\xff", ev.k_pub, ev.nonce, ev.signature)
        with self.assertRaises(UnicodeDecodeError):
            AttestationEvidence.from_bytes(data)

    def test_wrong_root_rejected(self):
        rogue = HardwareRoot(os.urandom(32))
        _, _, ev = _fresh_evidence(self.nonce, root=rogue)
        decision = verify_evidence(
            ev, compute_measurement(BuildManifest("miner", "1", "heuristics")),
            ["org:miner"], self.nonce,
        )
        self.assertEqual((decision.trusted, decision.reason), (False, REASON_SIGNATURE))

    def test_unexpected_measurement_named(self):
        other = compute_measurement(BuildManifest("miner", "1", "declare"))
        decision = self.appraise(self.evidence, reference_measurement=other)
        self.assertEqual((decision.trusted, decision.reason), (False, REASON_MEASUREMENT))

    def test_unauthorized_org_named(self):
        decision = self.appraise(self.evidence, allowed_orgs=["org:other"])
        self.assertEqual((decision.trusted, decision.reason), (False, REASON_ORG))

    def test_stale_nonce_named(self):
        decision = self.appraise(self.evidence, expected_nonce=os.urandom(16))
        self.assertEqual((decision.trusted, decision.reason), (False, REASON_NONCE))

    def test_nonce_check_is_mandatory(self):
        decision = self.appraise(self.evidence, expected_nonce=None)
        self.assertEqual((decision.trusted, decision.reason), (False, REASON_NONCE))

    def test_bytes_round_trip(self):
        ev = self.evidence
        signed = (ev.measurement, ev.identity_proof.encode("utf-8"), ev.k_pub, ev.nonce)
        self.assertEqual(ev.signed_payload(), _framed(*signed))
        self.assertEqual(ev.to_bytes(), _framed(*signed, ev.signature))
        self.assertEqual(AttestationEvidence.from_bytes(ev.to_bytes()), ev)

    def test_malformed_evidence_frames_are_value_errors(self):
        ev = self.evidence
        fields = (ev.measurement, ev.identity_proof.encode("utf-8"), ev.k_pub, ev.nonce)
        for data in (_framed(*fields), ev.to_bytes() + b"\x00", ev.to_bytes()[:-1], b""):
            with self.assertRaises(ValueError):
                AttestationEvidence.from_bytes(data)

    def test_session_private_key_never_in_wire_form(self):
        # Nothing in the evidence bytes may leak the session private scalar.
        raw_priv = self.session._k_priv.private_bytes_raw()
        self.assertNotIn(raw_priv, self.evidence.to_bytes())


def _framed(*fields):
    """The documented framing, written out here: the version, then each
    field behind its u32 length."""
    return struct.pack(">H", FRAME_VERSION) + b"".join(
        struct.pack(">I", len(f)) + f for f in fields
    )


def _fields(envelope):
    """The wrapped key, proof and ciphertext of a well-formed envelope."""
    fields, pos = [], 2
    for _ in range(3):
        (n,) = struct.unpack(">I", envelope[pos : pos + 4])
        fields.append(envelope[pos + 4 : pos + 4 + n])
        pos += 4 + n
    return tuple(fields)


class SealingTest(unittest.TestCase):
    def setUp(self):
        self.session = SessionKeys()
        self.sender = OrgIdentity("hospital", seed=hashlib.sha256(b"h").digest())
        self.payload = os.urandom(2048)

    def seal(self, payload=None, k_pub=None, sender=None):
        k_sym = new_symmetric_key()
        return seal_segment(
            payload if payload is not None else self.payload,
            k_sym,
            wrap_key(k_sym, k_pub or self.session.k_pub),
            sender or self.sender,
        )

    def test_round_trip(self):
        envelope = self.seal()
        out, _ = open_segment(envelope, self.session, self.sender.public_bytes)
        self.assertEqual(out, self.payload)

    def test_envelope_layout(self):
        envelope = self.seal()
        (version,) = struct.unpack(">H", envelope[:2])
        self.assertEqual(version, FRAME_VERSION)
        pos = 2
        lengths = []
        for _ in range(3):
            (n,) = struct.unpack(">I", envelope[pos : pos + 4])
            pos += 4 + n
            lengths.append(n)
        self.assertEqual(pos, len(envelope))
        wrapped_len, proof_len, ct_len = lengths
        self.assertEqual(wrapped_len, 32 + 12 + len(new_symmetric_key()) + 16)
        self.assertEqual(proof_len, 64)
        # GCM: 12-byte nonce plus 16-byte tag around the payload.
        self.assertEqual(ct_len, 12 + len(self.payload) + 16)

    def test_envelope_size_depends_only_on_payload_size(self):
        sizes = {len(self.seal(payload=os.urandom(100))) for _ in range(5)}
        self.assertEqual(len(sizes), 1)

    def test_flipped_ciphertext_bit_rejected(self):
        envelope = bytearray(self.seal())
        envelope[-1] ^= 0x01
        with self.assertRaises(AuthFailure):
            open_segment(bytes(envelope), self.session, self.sender.public_bytes)

    def test_wrong_session_cannot_open(self):
        envelope = self.seal()
        with self.assertRaises(KeyUnwrapFailure):
            open_segment(envelope, SessionKeys(), self.sender.public_bytes)

    def test_spoofed_sender_rejected(self):
        envelope = self.seal()
        impostor = OrgIdentity("impostor")
        with self.assertRaises(AuthFailure):
            open_segment(envelope, self.session, impostor.public_bytes)

    def test_resigned_envelope_still_rejected(self):
        # An impostor who re-signs the body still fails because the verifier
        # pins the expected sender's public key.
        wrapped, _, ct = _fields(self.seal())
        impostor = OrgIdentity("impostor")
        forged = _framed(wrapped, impostor.sign(_framed(wrapped, ct)), ct)
        with self.assertRaisesRegex(AuthFailure, "^sender proof rejected$"):
            open_segment(forged, self.session, self.sender.public_bytes)

    def test_a_byte_moved_across_a_field_boundary_rejected(self):
        # The proof signs the field lengths, not just the concatenated bytes.
        wrapped, proof, ct = _fields(self.seal())
        for moved in (
            _framed(wrapped[:-1], proof, wrapped[-1:] + ct),
            _framed(wrapped + ct[:1], proof, ct[1:]),
        ):
            with self.assertRaisesRegex(AuthFailure, "^sender proof rejected$"):
                open_segment(moved, self.session, self.sender.public_bytes)

    def test_signed_envelope_with_a_bad_key_length_rejected(self):
        # The genuine sender wrapped a key AES-GCM cannot take: still an
        # AuthFailure, never the cipher's own ValueError.
        wrapped = wrap_key(b"k" * 5, self.session.k_pub)
        ct = os.urandom(12 + 16 + 8)
        envelope = _framed(wrapped, self.sender.sign(_framed(wrapped, ct)), ct)
        with self.assertRaisesRegex(
            AuthFailure, "^segment ciphertext failed authentication$"
        ) as caught:
            open_segment(envelope, self.session, self.sender.public_bytes)
        self.assertIsInstance(caught.exception.__cause__, ValueError)

    def test_truncated_envelope_rejected(self):
        envelope = self.seal()
        for cut in (0, 1, 5, len(envelope) // 2, len(envelope) - 1):
            with self.assertRaises(AuthFailure):
                open_segment(envelope[:cut], self.session, self.sender.public_bytes)

    def test_trailing_bytes_rejected(self):
        envelope = self.seal() + b"\x00"
        with self.assertRaises(AuthFailure):
            open_segment(envelope, self.session, self.sender.public_bytes)

    def test_wrong_envelope_version_rejected(self):
        envelope = self.seal()
        bumped = struct.pack(">H", FRAME_VERSION + 1) + envelope[2:]
        with self.assertRaises(AuthFailure):
            open_segment(bumped, self.session, self.sender.public_bytes)


class StreamKeyTest(unittest.TestCase):
    """One wrapped key per stream: the opener reuses a held key only for the
    same signed wrapped bytes, and only after the sender proof checks out."""

    def setUp(self):
        self.session = SessionKeys()
        self.sender = OrgIdentity("hospital", seed=hashlib.sha256(b"h").digest())
        self.k_sym = new_symmetric_key()
        self.wrapped = wrap_key(self.k_sym, self.session.k_pub)

    def seal(self, payload, k_sym=None, wrapped=None):
        return seal_segment(
            payload, k_sym or self.k_sym, wrapped or self.wrapped, self.sender
        )

    def open(self, envelope, held=None):
        with mock.patch.object(enclave, "unwrap_key", wraps=unwrap_key) as unwraps:
            out = open_segment(envelope, self.session, self.sender.public_bytes, held)
        return out, unwraps.call_count

    def test_a_stream_unwraps_once(self):
        (first, held), unwraps = self.open(self.seal(b"one"))
        self.assertEqual((first, held, unwraps), (b"one", (self.wrapped, self.k_sym), 1))
        (second, held_after), unwraps = self.open(self.seal(b"two"), held)
        self.assertEqual((second, held_after, unwraps), (b"two", held, 0))

    def test_other_wrapped_bytes_are_unwrapped_afresh(self):
        (_, held), _ = self.open(self.seal(b"one"))
        # Same key, wrapped again: different bytes, so no reuse.
        rewrapped = wrap_key(self.k_sym, self.session.k_pub)
        (out, now), unwraps = self.open(self.seal(b"two", wrapped=rewrapped), held)
        self.assertEqual((out, now, unwraps), (b"two", (rewrapped, self.k_sym), 1))
        k_other = new_symmetric_key()
        wrapped_other = wrap_key(k_other, self.session.k_pub)
        envelope = self.seal(b"three", k_sym=k_other, wrapped=wrapped_other)
        (out, now), unwraps = self.open(envelope, held)
        self.assertEqual((out, now, unwraps), (b"three", (wrapped_other, k_other), 1))

    def test_a_held_key_never_opens_a_blob_wrapped_to_another_session(self):
        (_, held), _ = self.open(self.seal(b"one"))
        foreign = wrap_key(self.k_sym, SessionKeys().k_pub)
        with self.assertRaises(KeyUnwrapFailure):
            self.open(self.seal(b"two", wrapped=foreign), held)

    def test_the_sender_proof_is_checked_before_a_held_key_is_used(self):
        (_, held), _ = self.open(self.seal(b"one"))
        tampered = bytearray(self.seal(b"two"))
        tampered[-1] ^= 0x01
        with mock.patch.object(enclave, "AESGCM", wraps=enclave.AESGCM) as ciphers:
            with self.assertRaises(AuthFailure):
                self.open(bytes(tampered), held)
        self.assertEqual(ciphers.call_count, 0)
        impostor = OrgIdentity("impostor")
        forged = seal_segment(b"two", self.k_sym, self.wrapped, impostor)
        with self.assertRaises(AuthFailure):
            self.open(forged, held)


_SESSION = SessionKeys()
_SENDER = OrgIdentity("hospital", seed=hashlib.sha256(b"h").digest())


@st.composite
def _resplits(draw):
    """A sealed envelope with its fields' bytes re-split at other lengths:
    either the wrapped key and ciphertext around the genuine proof, or all
    three fields."""
    k_sym = new_symmetric_key()
    payload = draw(st.binary(max_size=64))
    wrapped, proof, ct = _fields(
        seal_segment(payload, k_sym, wrap_key(k_sym, _SESSION.k_pub), _SENDER)
    )

    def cut(body, bound, low=0):
        near = st.integers(-3, 3).map(lambda d: min(max(bound + d, low), len(body)))
        return draw(st.one_of(near, st.integers(low, len(body))))

    if draw(st.booleans()):
        signed = wrapped + ct
        at = cut(signed, len(wrapped))
        assume(at != len(wrapped))
        return _framed(signed[:at], proof, signed[at:])
    body = wrapped + proof + ct
    first = cut(body, len(wrapped))
    second = cut(body, len(wrapped) + len(proof), first)
    assume((first, second) != (len(wrapped), len(wrapped) + len(proof)))
    return _framed(body[:first], body[first:second], body[second:])


@settings(max_examples=150, deadline=None)
@given(_resplits())
def test_a_resplit_envelope_fails_its_sender_proof_before_any_key_is_used(envelope):
    with mock.patch.object(enclave, "unwrap_key", wraps=unwrap_key) as unwraps:
        with mock.patch.object(enclave, "AESGCM", wraps=enclave.AESGCM) as ciphers:
            with pytest.raises(AuthFailure, match="^sender proof rejected$"):
                open_segment(envelope, _SESSION, _SENDER.public_bytes)
    assert (unwraps.call_count, ciphers.call_count) == (0, 0)


def test_wrap_unwrap_round_trip():
    session = SessionKeys()
    k = new_symmetric_key()
    assert unwrap_key(wrap_key(k, session.k_pub), session) == k


def test_wrap_is_randomized():
    session = SessionKeys()
    k = new_symmetric_key()
    assert wrap_key(k, session.k_pub) != wrap_key(k, session.k_pub)


def test_unwrap_rejects_short_blob():
    with pytest.raises(KeyUnwrapFailure):
        unwrap_key(b"short", SessionKeys())


def test_root_requires_exact_seed_length():
    with pytest.raises(ValueError):
        HardwareRoot(b"short seed")


class AccountantTest(unittest.TestCase):
    def test_peak_tracks_high_water_mark(self):
        acc = EnclaveAccountant()
        acc.account(100)
        acc.account(250)
        acc.account(-300)
        acc.account(10)
        self.assertEqual(acc.current_bytes, 60)
        self.assertEqual(acc.peak_bytes, 350)

    def test_underflow_is_a_bug(self):
        acc = EnclaveAccountant()
        acc.account(5)
        with self.assertRaises(UnderflowBug):
            acc.account(-6)
        self.assertEqual(acc.current_bytes, 5)

    def test_capacity_enforced(self):
        acc = EnclaveAccountant(capacity=100)
        acc.account(90)
        with self.assertRaises(CapacityExceeded):
            acc.account(11)
        self.assertEqual(acc.current_bytes, 90)
        acc.account(10)
        self.assertEqual(acc.peak_bytes, 100)
