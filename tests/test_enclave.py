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

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PublicKey
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from enclavemine import enclave
from enclavemine.enclave import (
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
    EvidenceRejected,
    OrgIdentity,
    SessionKeys,
    UnderflowBug,
    build_evidence,
    compute_measurement,
    new_stream_key,
    open_segment,
    seal_segment,
    sign_stream,
    verify_evidence,
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


def _fresh_evidence(nonce=b"n" * 16, org="org:miner"):
    manifest = BuildManifest("miner", "1", "heuristics")
    session = SessionKeys()
    ev = build_evidence(compute_measurement(manifest), org, session.k_pub, nonce)
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

    def assertRejected(self, reason, ev, **kw):
        # The message is the reason alone, so the abort that carries it names it.
        with self.assertRaisesRegex(EvidenceRejected, "^%s$" % reason):
            self.appraise(ev, **kw)

    def test_good_evidence_is_trusted(self):
        self.assertEqual(self.appraise(self.evidence), self.session.k_pub)

    def test_tampered_measurement_fails_signature_first(self):
        forged = AttestationEvidence(
            measurement=os.urandom(32),
            identity_proof=self.evidence.identity_proof,
            k_pub=self.evidence.k_pub,
            nonce=self.evidence.nonce,
            signature=self.evidence.signature,
        )
        self.assertRejected(REASON_SIGNATURE, forged)

    def test_field_too_long_to_sign_fails_signature(self):
        forged = dataclasses.replace(self.evidence, identity_proof="x" * 0x10000)
        self.assertRejected(REASON_SIGNATURE, forged)

    def test_identity_proof_bytes_that_are_not_utf8_are_malformed(self):
        # Evidence arrives as bytes; a proof that is not UTF-8 never becomes
        # a string, so it cannot reach the verifier.
        ev = self.evidence
        data = _framed(ev.measurement, b"org:\xff", ev.k_pub, ev.nonce, ev.signature)
        with self.assertRaises(UnicodeDecodeError):
            AttestationEvidence.from_bytes(data)

    def test_wrong_root_rejected(self):
        # Evidence from other hardware: the same payload, signed by another root.
        rogue = OrgIdentity("hardware-root", os.urandom(32))
        signature = rogue.sign(self.evidence.signed_payload())
        ev = dataclasses.replace(self.evidence, signature=signature)
        reference = compute_measurement(BuildManifest("miner", "1", "heuristics"))
        with self.assertRaisesRegex(EvidenceRejected, "^%s$" % REASON_SIGNATURE):
            verify_evidence(ev, reference, ["org:miner"], self.nonce)

    def test_unexpected_measurement_named(self):
        other = compute_measurement(BuildManifest("miner", "1", "declare"))
        self.assertRejected(REASON_MEASUREMENT, self.evidence, reference_measurement=other)

    def test_unauthorized_org_named(self):
        self.assertRejected(REASON_ORG, self.evidence, allowed_orgs=["org:other"])

    def test_stale_nonce_named(self):
        self.assertRejected(REASON_NONCE, self.evidence, expected_nonce=os.urandom(16))

    def test_nonce_check_is_mandatory(self):
        self.assertRejected(REASON_NONCE, self.evidence, expected_nonce=None)

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
    """The key share, proof and ciphertext of a well-formed envelope."""
    fields, pos = [], 2
    for _ in range(3):
        (n,) = struct.unpack(">I", envelope[pos : pos + 4])
        fields.append(envelope[pos + 4 : pos + 4 + n])
        pos += 4 + n
    return tuple(fields)


SESSION = "s1"
SEG_SIZE = 2000
PLACE = (SESSION, "hospital", SEG_SIZE, 0, True)  # session, sender, seg_size, index, end mark


def _stream_signed(share, session=SESSION, sender="hospital"):
    """What the sender proof signs, written out here: the framed session,
    sender id and key share."""
    return _framed(session.encode(), sender.encode(), share)


def _seal(payload, k_sym, share, sender, place=PLACE):
    proof = sender.sign(_stream_signed(share, place[0], place[1]))
    return seal_segment(payload, k_sym, share, proof, *place)


def _counting(session):
    """Patches that count key derivations (any HKDF, and ``session``'s
    ``stream_key``) and AES-GCM objects; the mocks in that order."""
    return (
        mock.patch.object(enclave, "HKDF", wraps=enclave.HKDF),
        mock.patch.object(session, "stream_key", wraps=session.stream_key),
        mock.patch.object(enclave, "AESGCM", wraps=enclave.AESGCM),
    )


class SealingTest(unittest.TestCase):
    def setUp(self):
        self.session = SessionKeys()
        self.sender = OrgIdentity("hospital", seed=hashlib.sha256(b"h").digest())
        self.payload = os.urandom(2048)

    def seal(self, payload=None, k_pub=None, sender=None):
        k_sym, share = new_stream_key(k_pub or self.session.k_pub)
        return _seal(
            payload if payload is not None else self.payload, k_sym, share, sender or self.sender
        )

    def open(self, envelope, keys=None, sender_public=None):
        keys, sender_public = keys or self.session, sender_public or self.sender.public_bytes
        return open_segment(envelope, keys, sender_public, *PLACE)

    def test_round_trip(self):
        out, _ = self.open(self.seal())
        self.assertEqual(out, self.payload)

    def test_sign_stream_signs_the_framed_session_sender_and_key_share(self):
        _, share = new_stream_key(self.session.k_pub)
        proof = sign_stream(self.sender, SESSION, share)
        self.assertTrue(OrgIdentity.verify(self.sender.public_bytes, proof, _stream_signed(share)))

    def test_envelope_layout(self):
        k_sym, share = new_stream_key(self.session.k_pub)
        proof = sign_stream(self.sender, SESSION, share)
        # The share and proof ride in segment 0 only; later segments carry
        # both fields empty.
        for index, keyed in ((0, (32, 64)), (1, (0, 0)), (7, (0, 0))):
            envelope = seal_segment(self.payload, k_sym, share, proof, *PLACE[:3], index, True)
            (version,) = struct.unpack(">H", envelope[:2])
            self.assertEqual(version, FRAME_VERSION)
            pos = 2
            lengths = []
            for _ in range(3):
                (n,) = struct.unpack(">I", envelope[pos : pos + 4])
                pos += 4 + n
                lengths.append(n)
            self.assertEqual(pos, len(envelope))
            # GCM: 12-byte nonce plus 16-byte tag around the payload.
            self.assertEqual(tuple(lengths), (*keyed, 12 + len(self.payload) + 16))

    def test_envelope_size_depends_only_on_payload_size(self):
        sizes = {len(self.seal(payload=os.urandom(100))) for _ in range(5)}
        self.assertEqual(len(sizes), 1)

    def test_flipped_ciphertext_bit_rejected(self):
        envelope = bytearray(self.seal())
        envelope[-1] ^= 0x01
        with self.assertRaises(AuthFailure):
            self.open(bytes(envelope))

    def test_wrong_session_cannot_open(self):
        # A share agreed with another session's key derives another key here,
        # so the genuine sender's proof passes and the tag fails.
        for envelope, keys in (
            (self.seal(), SessionKeys()),
            (self.seal(k_pub=SessionKeys().k_pub), self.session),
        ):
            with self.assertRaisesRegex(AuthFailure, "^segment ciphertext failed authentication$"):
                self.open(envelope, keys=keys)

    def test_spoofed_sender_rejected(self):
        impostor = OrgIdentity("impostor")
        with self.assertRaises(AuthFailure):
            self.open(self.seal(), sender_public=impostor.public_bytes)

    def test_resigned_envelope_still_rejected(self):
        # An impostor who re-signs the stream still fails because the
        # verifier pins the expected sender's public key.
        share, _, ct = _fields(self.seal())
        impostor = OrgIdentity("impostor")
        forged = _framed(share, impostor.sign(_stream_signed(share)), ct)
        with self.assertRaisesRegex(AuthFailure, "^sender proof rejected$"):
            self.open(forged)

    def test_a_proof_for_another_session_or_sender_rejected(self):
        share, _, ct = _fields(self.seal())
        for session, sender in (("s2", "hospital"), (SESSION, "pharma")):
            proof = self.sender.sign(_stream_signed(share, session, sender))
            with self.assertRaisesRegex(AuthFailure, "^sender proof rejected$"):
                self.open(_framed(share, proof, ct))

    def test_a_byte_moved_across_a_field_boundary_rejected(self):
        # The proof signs the field lengths, not just the concatenated bytes.
        share, proof, ct = _fields(self.seal())
        for moved in (
            _framed(share[:-1], proof, share[-1:] + ct),
            _framed(share + ct[:1], proof, ct[1:]),
        ):
            with self.assertRaisesRegex(AuthFailure, "^sender proof rejected$"):
                self.open(moved)

    def test_signed_envelope_with_a_bad_key_length_rejected(self):
        # The genuine sender signed a share X25519 cannot take, one of the
        # wrong length or a low-order point: still an AuthFailure, never the
        # key exchange's own ValueError, and no cipher is made.
        ct = os.urandom(12 + 16 + 8)
        for share in (b"k" * 5, bytes(32)):
            envelope = _framed(share, self.sender.sign(_stream_signed(share)), ct)
            with mock.patch.object(enclave, "AESGCM", wraps=enclave.AESGCM) as ciphers:
                with self.assertRaisesRegex(AuthFailure, "^key share does not agree") as caught:
                    self.open(envelope)
            self.assertIsInstance(caught.exception.__cause__, ValueError)
            self.assertEqual(ciphers.call_count, 0)

    def test_truncated_envelope_rejected(self):
        envelope = self.seal()
        for cut in (0, 1, 5, len(envelope) // 2, len(envelope) - 1):
            with self.assertRaises(AuthFailure):
                self.open(envelope[:cut])

    def test_trailing_bytes_rejected(self):
        with self.assertRaises(AuthFailure):
            self.open(self.seal() + b"\x00")

    def test_wrong_envelope_version_rejected(self):
        envelope = self.seal()
        bumped = struct.pack(">H", FRAME_VERSION + 1) + envelope[2:]
        with self.assertRaises(AuthFailure):
            self.open(bumped)


class StreamKeyTest(unittest.TestCase):
    """One key share and one sender proof per stream, on its first envelope:
    the opener verifies the proof and derives the key there, and rejects
    key fields on any later envelope; AES-GCM binds each segment's place."""

    def setUp(self):
        self.session = SessionKeys()
        self.sender = OrgIdentity("hospital", seed=hashlib.sha256(b"h").digest())
        self.k_sym, self.share = new_stream_key(self.session.k_pub)
        self.proof = sign_stream(self.sender, SESSION, self.share)

    def seal(self, payload, index=0, last=True):
        return seal_segment(
            payload, self.k_sym, self.share, self.proof, SESSION, "hospital", SEG_SIZE, index, last
        )

    def open(
        self, envelope, k_sym=None, index=0, last=True, session=SESSION, sender="hospital",
        seg_size=SEG_SIZE,
    ):
        """Open, and count the proofs verified, keys derived and ciphers made."""
        kdfs, derives, ciphers = _counting(self.session)
        with kdfs, derives as derives, ciphers as ciphers:
            with mock.patch.object(OrgIdentity, "verify", wraps=OrgIdentity.verify) as verifies:
                try:
                    out = open_segment(
                        envelope, self.session, self.sender.public_bytes, session, sender,
                        seg_size, index, last, k_sym,
                    )
                finally:
                    self.counts = (verifies.call_count, derives.call_count, ciphers.call_count)
        return out

    def test_a_stream_derives_its_key_once(self):
        first = self.open(self.seal(b"one", 0, False), last=False)
        self.assertEqual((first, self.counts), ((b"one", self.k_sym), (1, 1, 1)))
        second = self.open(self.seal(b"two", 1), self.k_sym, index=1)
        self.assertEqual((second, self.counts), ((b"two", self.k_sym), (0, 0, 1)))

    def test_a_later_segment_with_key_fields_is_rejected(self):
        # Key fields ride on segment 0 only: the stream's own share and
        # proof repeated, either alone, or a fresh share signed for this
        # session (a mid-stream re-key) all fail before any cipher is made.
        _, _, ct = _fields(self.seal(b"two", 1))
        k_new, share_new = new_stream_key(self.session.k_pub)
        for share, proof in (
            (self.share, self.proof),
            (self.share, b""),
            (b"", self.proof),
            (share_new, sign_stream(self.sender, SESSION, share_new)),
        ):
            with self.assertRaisesRegex(AuthFailure, "^key fields on segment 1 of a stream$"):
                self.open(_framed(share, proof, ct), self.k_sym, index=1)
            self.assertEqual(self.counts, (0, 0, 0))

    def test_a_held_key_never_opens_a_blob_wrapped_to_another_session(self):
        # Segment 1 of a stream whose key was agreed with another session's
        # key: in place, with empty key fields, it still fails its tag under
        # the key this stream holds.
        k_other, share_other = new_stream_key(SessionKeys().k_pub)
        envelope = seal_segment(b"two", k_other, share_other, self.proof, *PLACE[:3], 1, True)
        with self.assertRaisesRegex(AuthFailure, "^segment ciphertext failed authentication$"):
            self.open(envelope, self.k_sym, index=1)

    def test_the_sender_proof_is_checked_before_a_held_key_is_used(self):
        # On the first envelope a changed proof or share fails before any
        # key is derived or cipher made.
        share, proof, ct = _fields(self.seal(b"one"))
        for tampered in (
            _framed(share, _flip(proof, 0), ct),
            _framed(_flip(share, 0), proof, ct),
            # Another key signing as hospital: a proof that fails.
            _framed(share, sign_stream(OrgIdentity("hospital"), SESSION, share), ct),
        ):
            with self.assertRaisesRegex(AuthFailure, "^sender proof rejected$"):
                self.open(tampered)
            self.assertEqual(self.counts, (1, 0, 0))
        # A later envelope with a tampered ciphertext: the held key is used,
        # and the GCM tag fails.
        with self.assertRaisesRegex(AuthFailure, "^segment ciphertext failed authentication$"):
            self.open(_flip(self.seal(b"two", 1), -1), self.k_sym, index=1)

    def test_a_segment_opens_only_at_its_own_place(self):
        # Sealed as segment 1 of hospital's stream in session s1, not last.
        envelope = self.seal(b"two", index=1, last=False)
        self.assertEqual(self.open(envelope, self.k_sym, index=1, last=False)[0], b"two")
        elsewhere = [
            dict(index=2, last=False),  # replayed or reordered: another index
            dict(index=1, last=True),  # end mark flipped
            dict(index=1, last=False, session="s2"),  # another session
            dict(index=1, last=False, sender="pharma"),  # another sender's stream
            dict(index=1, last=False, seg_size=30),  # cut to another seg_size
        ]
        for place in elsewhere:
            with self.subTest(**place):
                with self.assertRaisesRegex(
                    AuthFailure, "^segment ciphertext failed authentication$"
                ):
                    self.open(envelope, self.k_sym, **place)
        # Where segment 0 was due (the first one lost), it carries no proof.
        with self.assertRaisesRegex(AuthFailure, "^sender proof rejected$"):
            self.open(envelope, last=False)


def _flip(data, position):
    out = bytearray(data)
    out[position] ^= 0x01
    return bytes(out)


_SESSION = SessionKeys()
_SENDER = OrgIdentity("hospital", seed=hashlib.sha256(b"h").digest())


@st.composite
def _resplits(draw):
    """A sealed first envelope with its fields' bytes re-split at other
    lengths: either the key share and ciphertext around the genuine proof,
    or all three fields."""
    k_sym, share = new_stream_key(_SESSION.k_pub)
    payload = draw(st.binary(max_size=64))
    share, proof, ct = _fields(_seal(payload, k_sym, share, _SENDER))

    def cut(body, bound, low=0):
        near = st.integers(-3, 3).map(lambda d: min(max(bound + d, low), len(body)))
        return draw(st.one_of(near, st.integers(low, len(body))))

    if draw(st.booleans()):
        signed = share + ct
        at = cut(signed, len(share))
        assume(at != len(share))
        return _framed(signed[:at], proof, signed[at:])
    body = share + proof + ct
    first = cut(body, len(share))
    second = cut(body, len(share) + len(proof), first)
    assume((first, second) != (len(share), len(share) + len(proof)))
    return _framed(body[:first], body[first:second], body[second:])


@settings(max_examples=150, deadline=None)
@given(_resplits())
def test_a_resplit_envelope_fails_its_sender_proof_before_any_key_is_used(envelope):
    kdfs, derives, ciphers = _counting(_SESSION)
    with kdfs as kdfs, derives as derives, ciphers as ciphers:
        with pytest.raises(AuthFailure, match="^sender proof rejected$"):
            open_segment(envelope, _SESSION, _SENDER.public_bytes, *PLACE)
    assert (kdfs.call_count, derives.call_count, ciphers.call_count) == (0, 0, 0)


@settings(max_examples=150, deadline=None)
@given(
    share=st.binary(max_size=40),
    proof=st.binary(max_size=80),
    index=st.integers(1, 2**64 - 1),
    payload=st.binary(max_size=64),
)
def test_a_later_envelope_with_any_key_field_fails_before_any_cipher(share, proof, index, payload):
    # The ciphertext is genuine for its place: a valid tag does not help.
    assume(share or proof)
    k_sym, own = new_stream_key(_SESSION.k_pub)
    _, _, ct = _fields(seal_segment(payload, k_sym, own, b"p", *PLACE[:3], index, True))
    kdfs, derives, ciphers = _counting(_SESSION)
    with kdfs as kdfs, derives as derives, ciphers as ciphers:
        with pytest.raises(AuthFailure, match="^key fields on segment %d of a stream$" % index):
            open_segment(
                _framed(share, proof, ct), _SESSION, _SENDER.public_bytes, *PLACE[:3], index, True,
                k_sym,
            )
    assert (kdfs.call_count, derives.call_count, ciphers.call_count) == (0, 0, 0)


def test_stream_key_is_hkdf_of_the_x25519_secret():
    # Independent oracle: the documented derivation, computed here from the
    # share and the session's private half.
    session = SessionKeys()
    k_sym, share = new_stream_key(session.k_pub)
    shared = session._k_priv.exchange(X25519PublicKey.from_public_bytes(share))
    info = b"enclavemine-stream-key-v1" + share + session.k_pub
    expected = HKDF(algorithm=hashes.SHA256(), length=32, salt=None, info=info).derive(shared)
    assert (k_sym, session.stream_key(share), len(share)) == (expected, expected, 32)


def test_each_stream_key_is_fresh_and_opens_only_with_its_session():
    session = SessionKeys()
    (k1, share1), (k2, share2) = new_stream_key(session.k_pub), new_stream_key(session.k_pub)
    assert k1 != k2 and share1 != share2
    assert SessionKeys().stream_key(share1) != k1


def test_stream_key_rejects_a_malformed_or_low_order_share():
    session = SessionKeys()
    # Too short, too long, and two low-order points (0 and 1).
    for share in (b"short", bytes(33), bytes(32), b"\x01" + bytes(31)):
        with pytest.raises(AuthFailure, match="^key share does not agree a key: ") as caught:
            session.stream_key(share)
        assert isinstance(caught.value.__cause__, ValueError)


def test_root_requires_exact_seed_length():
    with pytest.raises(ValueError):
        OrgIdentity("hardware-root", b"short seed")


class AccountantTest(unittest.TestCase):
    def test_peak_tracks_high_water_mark(self):
        acc = EnclaveAccountant()
        acc.account(100)
        acc.account(250)
        acc.account(-300)
        acc.account(10)
        self.assertEqual(acc.current_bytes, 60)
        self.assertEqual(acc.peak_bytes, 350)

    def test_mean_is_over_the_bytes_held_after_each_call(self):
        acc = EnclaveAccountant()
        self.assertEqual(acc.mean_bytes, 0.0)
        acc.account(100)
        acc.account(250)
        acc.account(-350)
        self.assertEqual(acc.mean_bytes, (100 + 350 + 0) / 3)

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
