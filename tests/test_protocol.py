"""Miner/provisioner session behavior, including misbehaving peers."""

import contextlib
import random
import struct
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubles import CollectorSink, LossyNetwork, make_random_log
from enclavemine import experiment, model, protocol, segmenter
from enclavemine.enclave import (
    AttestationEvidence,
    BuildManifest,
    OrgIdentity,
    SessionKeys,
    compute_measurement,
    new_stream_key,
    seal_segment,
    unframe,
)
from enclavemine.model import EventLog, extract_case, iid_set, log_from_events, merge_all
from enclavemine.protocol import (
    KIND_CASES_GRANT,
    KIND_CASES_REF_REQ,
    KIND_CASES_REF_RES,
    KIND_CASES_REQ,
    KIND_CASES_RES,
    DuplicateResponse,
    IncompleteDelivery,
    Msg,
    MinerConfig,
    NoProvisioners,
    Provisioner,
    ProvisionerConfig,
    SecureMiner,
    UnexpectedIid,
    UnexpectedMessage,
    UnknownProvisioner,
)
from enclavemine.segmenter import segment_event_log, size_of
from enclavemine.transport import InProcessNetwork
from enclavemine.wire import EMPTY_LOG_SIZE, encode_log

MANIFEST = BuildManifest(component="miner", version="t", algorithm="heuristics")
MINER_PROOF = "org:miner"
NONCE = bytes(16)


def _provisioner(org_id, partition, session="s1", cls=Provisioner, **overrides):
    kwargs = dict(
        partition=partition,
        allowed_miners=frozenset({MINER_PROOF}),
        reference_measurement=compute_measurement(MANIFEST),
        identity=OrgIdentity(org_id),
        session=session,
    )
    kwargs.update(overrides)
    return cls(ProvisionerConfig(**kwargs))


def _session(
    partitions,
    *,
    seg_size=1_000_000,
    do_yield=True,
    session="s1",
    capacity=None,
    seed=0,
    network_cls=InProcessNetwork,
    provisioners=None,
):
    if provisioners is None:
        provisioners = {
            org: _provisioner(org, part, session=session)
            for org, part in partitions.items()
        }
    sink = CollectorSink()
    miner = SecureMiner(
        MinerConfig(
            miner_id="miner",
            org_proof=MINER_PROOF,
            seg_size=seg_size,
            do_yield_cases=do_yield,
            manifest=MANIFEST,
            session=session,
            provisioner_keys={
                org: p.config.identity.public_bytes for org, p in provisioners.items()
            },
            capacity=capacity,
        ),
        sink,
    )
    net = network_cls(seed=seed)
    net.register(miner)
    for p in provisioners.values():
        net.register(p)
    return net, miner, sink, provisioners


def test_no_provisioners_rejected():
    with pytest.raises(NoProvisioners):
        SecureMiner(
            MinerConfig(
                miner_id="m",
                org_proof=MINER_PROOF,
                seg_size=100,
                do_yield_cases=True,
                manifest=MANIFEST,
                session="s",
                provisioner_keys={},
            ),
            CollectorSink(),
        )


# One encoded message of each kind, assembled by hand from the documented
# layout, not via the encoder: the version, the JSON head behind its u32
# length, then the blob behind its own.
GOLDEN_MESSAGES = [
    (
        Msg(KIND_CASES_REF_REQ, "miner", "s1", {"identity_proof": "org:miner"}, b""),
        b"\x00\x01" + struct.pack(">I", 94)
        + b'{"body":{"identity_proof":"org:miner"},'
        + b'"kind":"cases_ref_req","sender":"miner","session":"s1"}'
        + struct.pack(">I", 0),
    ),
    (
        Msg(KIND_CASES_REF_RES, "hospital", "s1", {"iids": ["312", "711"]}, bytes(range(16))),
        b"\x00\x01" + struct.pack(">I", 89)
        + b'{"body":{"iids":["312","711"]},'
        + b'"kind":"cases_ref_res","sender":"hospital","session":"s1"}'
        + struct.pack(">I", 16) + bytes(range(16)),
    ),
    (
        Msg(KIND_CASES_REQ, "miner", "s1", {"seg_size": 300}, b"evidence"),
        b"\x00\x01" + struct.pack(">I", 76)
        + b'{"body":{"seg_size":300},"kind":"cases_req","sender":"miner","session":"s1"}'
        + struct.pack(">I", 8) + b"evidence",
    ),
    (
        Msg(KIND_CASES_RES, "hospital", "s1", {"last": True}, b"envelope"),
        b"\x00\x01" + struct.pack(">I", 76)
        + b'{"body":{"last":true},"kind":"cases_res","sender":"hospital","session":"s1"}'
        + struct.pack(">I", 8) + b"envelope",
    ),
    (
        Msg(KIND_CASES_GRANT, "miner", "s1", {"credit": 3000}, b""),
        b"\x00\x01" + struct.pack(">I", 77)
        + b'{"body":{"credit":3000},"kind":"cases_grant","sender":"miner","session":"s1"}'
        + struct.pack(">I", 0),
    ),
]


@pytest.mark.parametrize("msg,golden", GOLDEN_MESSAGES, ids=[m.kind for m, _ in GOLDEN_MESSAGES])
def test_message_golden_bytes(msg, golden):
    assert msg.encode() == golden
    assert Msg.decode(golden) == msg


_text = st.text(max_size=8)
_messages = st.builds(
    Msg,
    _text,
    _text,
    _text,
    st.dictionaries(
        _text, st.one_of(_text, st.integers(), st.booleans(), st.lists(_text, max_size=3)), max_size=4
    ),
    st.binary(max_size=64),
)


@settings(max_examples=100, deadline=None)
@given(_messages, st.binary(min_size=1, max_size=1))
def test_a_message_round_trips_and_only_its_exact_bytes_decode(msg, extra):
    encoded = msg.encode()
    assert Msg.decode(encoded) == msg
    for cut in range(len(encoded)):
        with pytest.raises(UnexpectedMessage):
            Msg.decode(encoded[:cut])
    with pytest.raises(UnexpectedMessage):
        Msg.decode(encoded + extra)


def test_bootstrap_fans_out_identity_proof(three_partitions):
    net, miner, _, _ = _session(three_partitions)
    out = miner.bootstrap()
    assert sorted(r for r, _ in out) == ["clinic", "hospital", "pharma"]
    for _, payload in out:
        msg = Msg.decode(payload)
        assert msg.kind == "cases_ref_req"
        assert msg.body == {"identity_proof": MINER_PROOF}
        assert msg.blob == b""
    assert miner.phase == "awaiting_refs"


def test_case_index_after_refs(three_partitions):
    net, miner, _, _ = _session(three_partitions)
    net.bootstrap()
    # Deliver exactly the three ref round-trips.
    for _ in range(6):
        net.deliver_next()
    assert {p: s.owed for p, s in miner.streams.items()} == {
        "hospital": {"312", "711"},
        "pharma": {"312", "711"},
        "clinic": {"312"},
    }
    assert miner.phase == "awaiting_cases"


def test_incremental_session_yields_merged_cases(three_partitions):
    net, miner, sink, _ = _session(three_partitions, do_yield=True)
    net.bootstrap()
    net.run()
    assert miner.phase == "done"
    assert miner.yield_count == 2
    by_iid = {next(iter(iid_set(c))): c for c in sink.cases}
    assert set(by_iid) == {"312", "711"}
    assert len(by_iid["312"]) == 18
    assert len(by_iid["711"]) == 12
    full = merge_all(three_partitions.values())
    assert by_iid["312"] == extract_case(full, "312")
    assert by_iid["711"] == extract_case(full, "711")


@pytest.mark.filterwarnings("ignore:.* exceed seg_size")
def test_batch_session_hands_over_every_case_at_the_end_in_iid_order():
    partitions = _random_partitions(3, n_cases=12)
    net, miner, sink, _ = _session(partitions, seg_size=120, do_yield=False, seed=3)
    held = []  # (streams still open, cases handed over) after each delivery
    net.on_delivered = lambda record: held.append((len(miner.streams), len(sink.cases)))
    net.bootstrap()
    net.run()
    assert miner.phase == "done"
    full = merge_all(partitions.values())
    iids = sorted(iid_set(full))
    # Nothing before the delivery that ends the last stream, then every case.
    assert [n for _, n in held[:-1]] == [0] * (len(held) - 1)
    assert held[-1] == (0, len(iids))
    assert [next(iter(iid_set(case))) for case in sink.cases] == iids
    assert sink.cases == [extract_case(full, iid) for iid in iids]
    assert miner.yield_count == 1


@pytest.mark.filterwarnings("ignore:.* exceed seg_size")
def test_a_batch_session_merges_each_case_just_before_it_hands_it_over():
    # The sink meets the first case after one merge, not after all of them,
    # and the k-th case after k merges.
    partitions = _random_partitions(3, n_cases=12)
    net, miner, sink, _ = _session(partitions, seg_size=120, do_yield=False, seed=3)
    merges = mock.Mock(wraps=protocol.log_from_events)
    merged_at = []  # merges done when each case reached the sink
    hand_over = sink.on_case

    def on_case(case):
        merged_at.append(merges.call_count)
        hand_over(case)

    sink.on_case = on_case
    with mock.patch.object(protocol, "log_from_events", merges):
        net.bootstrap()
        net.run()
    assert miner.phase == "done"
    assert merged_at == list(range(1, len(sink.cases) + 1))
    assert len(sink.cases) == 12


def test_incremental_and_batch_agree(three_partitions):
    _, _, inc_sink, _ = _run_to_done(three_partitions, do_yield=True)
    _, _, bat_sink, _ = _run_to_done(three_partitions, do_yield=False)
    assert sorted(inc_sink.cases, key=lambda case: case.events[0].iid) == bat_sink.cases


class RecordingNetwork(InProcessNetwork):
    """Keeps every message sent, decoded, in send order, and its receiver."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.sent = []
        self.receivers = []

    def send(self, sender, receiver, payload):
        super().send(sender, receiver, payload)
        self.sent.append(Msg.decode(payload))
        self.receivers.append(receiver)


def _streams(net):
    """Each sender's cases_res messages, in send order."""
    streams = {}
    for msg in net.sent:
        if msg.kind == KIND_CASES_RES:
            streams.setdefault(msg.sender, []).append(msg)
    return streams


def _sealed(net):
    """How many envelopes each sender sent, from a :class:`RecordingNetwork`."""
    return Counter(msg.sender for msg in net.sent if msg.kind == KIND_CASES_RES and msg.blob)


def _run_to_done(partitions, **kw):
    net, miner, sink, provisioners = _session(partitions, **kw)
    net.bootstrap()
    net.run()
    return net, miner, sink, provisioners


def test_small_seg_size_streams_many_segments(three_partitions):
    single = size_of(extract_case(three_partitions["hospital"], "312"))
    net, miner, sink, provisioners = _run_to_done(
        three_partitions, seg_size=max(single, 120), do_yield=True, network_cls=RecordingNetwork
    )
    assert miner.phase == "done"
    assert sum(_sealed(net).values()) >= 4
    assert merge_all(sink.cases) == merge_all(three_partitions.values())


def test_each_stream_ends_on_its_last_segment(three_partitions):
    single = size_of(extract_case(three_partitions["hospital"], "312"))
    net, miner, _, provisioners = _run_to_done(
        three_partitions, seg_size=max(single, 120), network_cls=RecordingNetwork
    )
    assert miner.phase == "done"
    streams = _streams(net)
    assert sorted(streams) == sorted(provisioners)
    assert max(len(msgs) for msgs in streams.values()) > 1
    for org, msgs in streams.items():
        partition = three_partitions[org]
        plan = segment_event_log(partition, max(single, 120))
        assert len(msgs) == len(plan.segments)
        assert all(msg.blob for msg in msgs)
        assert all(msg.body == {} for msg in msgs[:-1])
        assert msgs[-1].body == {"last": True}
    assert not any("last" in msg.body for msg in net.sent if msg.kind != KIND_CASES_RES)


@pytest.mark.filterwarnings("ignore:.* exceed seg_size")
@pytest.mark.parametrize("seg_size", [300, 1_000_000])
def test_a_finished_stream_keeps_no_key(seg_size):
    # A provisioner drops its stream key, share and proof with its last
    # segment, and a grant after that still aborts it.
    partitions = _random_partitions(5, n_cases=50)
    net, miner, _, provisioners = _run_to_done(partitions, seg_size=seg_size)
    assert miner.phase == "done"
    for p in provisioners.values():
        assert (p.phase, p.sealed > 0) == ("done", True)
        assert p.stream_key == (b"", b"", b"")
    late = Msg(KIND_CASES_GRANT, "miner", "s1", {"credit": 10**9}, b"").encode()
    for p in provisioners.values():
        assert p.handle("miner", late) == []
        assert (p.phase, p.aborted_reason) == ("aborted", "UnexpectedMessage")
        assert p.aborted_message == "cases_grant in phase done"


def _key_fields(msgs):
    """The share and proof field lengths of each envelope of a stream."""
    return [tuple(len(f) for f in unframe(msg.blob, 3)[:2]) for msg in msgs]


@pytest.mark.parametrize("do_yield", [True, False])
def test_one_key_encapsulation_per_stream(three_partitions, do_yield):
    # Each stream agrees its key once and the miner derives it once, however
    # many segments the stream has; only the first envelope carries the
    # 32-byte share and the 64-byte proof.
    single = size_of(extract_case(three_partitions["hospital"], "312"))
    with mock.patch.object(
        protocol, "new_stream_key", wraps=new_stream_key
    ) as agrees, mock.patch.object(
        SessionKeys, "stream_key", autospec=True, side_effect=SessionKeys.stream_key
    ) as derives:
        net, miner, sink, provisioners = _run_to_done(
            three_partitions,
            seg_size=max(single, 120),
            do_yield=do_yield,
            network_cls=RecordingNetwork,
        )
    assert miner.phase == "done"
    streams = _streams(net)
    sealed = _sealed(net)
    assert sum(sealed.values()) > len(streams)
    assert agrees.call_count == len(provisioners)
    assert derives.call_count == len(sealed)
    for msgs in streams.values():
        assert _key_fields(msgs) == [(32, 64)] + [(0, 0)] * (len(msgs) - 1)
    shares = {unframe(msgs[0].blob, 3)[0] for msgs in streams.values()}
    assert len(shares) == len(streams)
    assert miner.streams == {}
    assert merge_all(sink.cases) == merge_all(three_partitions.values())


def test_one_sender_proof_per_stream(three_partitions):
    # Each provisioner signs once and the miner verifies once per stream,
    # however many segments it has; the stream's first envelope carries it.
    single = size_of(extract_case(three_partitions["hospital"], "312"))
    net, miner, sink, provisioners = _session(
        three_partitions, seg_size=max(single, 120), network_cls=RecordingNetwork
    )
    identities = {org: p.config.identity for org, p in provisioners.items()}
    with contextlib.ExitStack() as stack:
        signs = {
            org: stack.enter_context(mock.patch.object(ident, "sign", wraps=ident.sign))
            for org, ident in identities.items()
        }
        verifies = stack.enter_context(
            mock.patch.object(OrgIdentity, "verify", wraps=OrgIdentity.verify)
        )
        net.bootstrap()
        net.run()
    assert miner.phase == "done"
    streams = _streams(net)
    assert max(len(msgs) for msgs in streams.values()) > 1
    assert {org: mock_.call_count for org, mock_ in signs.items()} == dict.fromkeys(identities, 1)
    senders = Counter(c.args[0] for c in verifies.call_args_list)
    publics = {ident.public_bytes for ident in identities.values()}
    assert {key: n for key, n in senders.items() if key in publics} == dict.fromkeys(publics, 1)
    for msgs in streams.values():
        proofs = [unframe(msg.blob, 3)[1] for msg in msgs]
        assert proofs[1:] == [b""] * (len(msgs) - 1) and len(proofs[0]) == 64
    assert merge_all(sink.cases) == merge_all(three_partitions.values())


@pytest.mark.filterwarnings("ignore:.* exceed seg_size")
def test_the_host_sees_case_ids_counts_and_lengths_but_no_event_content(three_partitions):
    # Every field of every message that is not under a seal, decoded: the
    # JSON head, and each blob's frame fields. seg_size 30 makes hospital's
    # stream wait for a grant, so all five kinds cross.
    net, miner, _, provisioners = _run_to_done(
        three_partitions, seg_size=30, do_yield=True, network_cls=RecordingNetwork
    )
    assert miner.phase == "done"
    owned = {org: sorted(iid_set(part)) for org, part in three_partitions.items()}
    texts, numbers = set(), set()
    lengths = Counter()
    for msg in net.sent:
        texts.update((msg.kind, msg.sender, msg.session))
        if msg.kind == KIND_CASES_REF_REQ:
            assert set(msg.body) == {"identity_proof"} and msg.blob == b""
            texts.add(msg.body["identity_proof"])
        elif msg.kind == KIND_CASES_REF_RES:
            assert set(msg.body) == {"iids"} and len(msg.blob) == 16  # the nonce
            assert msg.body["iids"] == owned[msg.sender]
        elif msg.kind == KIND_CASES_REQ:
            assert set(msg.body) == {"seg_size"}
            numbers.add(msg.body["seg_size"])
            # Measurement, identity proof, public key, nonce and signature.
            texts.add(AttestationEvidence.from_bytes(msg.blob).identity_proof)
        elif msg.kind == KIND_CASES_RES:
            assert msg.body in ({}, {"last": True})
            # Key share and sender proof (first segment only), then a
            # 12-byte nonce, the ciphertext and a 16-byte tag.
            _, _, sealed = unframe(msg.blob, 3)
            lengths[msg.sender] += len(sealed) - 28
        else:
            assert msg.kind == KIND_CASES_GRANT
            assert set(msg.body) == {"credit"} and msg.blob == b""
            numbers.add(msg.body["credit"])
        texts.update(iid for v in msg.body.values() if isinstance(v, list) for iid in v)
    # Each organization's case ids cross in the clear once, in its refs.
    lists = [(msg.kind, msg.sender, v) for msg in net.sent for v in msg.body.values()
             if isinstance(v, list)]
    assert sorted(lists) == [(KIND_CASES_REF_RES, org, ids) for org, ids in sorted(owned.items())]
    assert Counter(msg.kind for msg in net.sent)[KIND_CASES_GRANT] == 1
    assert lengths == {org: p.sent for org, p in provisioners.items()}
    iids = {iid for ids in owned.values() for iid in ids}
    kinds = {KIND_CASES_REF_REQ, KIND_CASES_REF_RES, KIND_CASES_REQ, KIND_CASES_RES,
             KIND_CASES_GRANT}
    assert texts == kinds | {"miner", *three_partitions, "s1", MINER_PROOF} | iids
    assert numbers == {30, 600}
    events = [ev for part in three_partitions.values() for ev in part]
    assert not texts & ({ev.activity for ev in events} | {ev.event_id for ev in events})
    assert not numbers & {ev.timestamp for ev in events}


def test_accounting_returns_to_zero(three_partitions):
    for do_yield in (True, False):
        _, miner, _, _ = _run_to_done(three_partitions, do_yield=do_yield)
        assert miner.accountant.current_bytes == 0
        assert miner.accountant.peak_bytes > 0


def test_batch_peak_dominates_incremental(three_partitions):
    _, inc, _, _ = _run_to_done(three_partitions, do_yield=True)
    _, bat, _, _ = _run_to_done(three_partitions, do_yield=False)
    assert bat.accountant.peak_bytes >= inc.accountant.peak_bytes


def test_unknown_provisioner_rejected(three_partitions):
    net, miner, _, _ = _session(three_partitions)
    miner.bootstrap()
    payload = Msg(KIND_CASES_REF_RES, "mallory", "s1", {"iids": ["312"]}, NONCE).encode()
    assert miner.handle("mallory", payload) == []
    assert miner.phase == "aborted"
    assert miner.aborted_reason == UnknownProvisioner.__name__


def test_duplicate_refs_rejected(three_partitions):
    net, miner, _, _ = _session(three_partitions)
    miner.bootstrap()
    payload = Msg(KIND_CASES_REF_RES, "hospital", "s1", {"iids": ["312", "711"]}, NONCE).encode()
    miner.handle("hospital", payload)
    assert miner.phase == "awaiting_refs"
    assert miner.handle("hospital", payload) == []
    assert miner.phase == "aborted"
    assert miner.aborted_reason == DuplicateResponse.__name__


def test_session_mismatch_rejected(three_partitions):
    net, miner, _, _ = _session(three_partitions)
    miner.bootstrap()
    payload = Msg(KIND_CASES_REF_RES, "hospital", "other", {"iids": []}, NONCE).encode()
    assert miner.handle("hospital", payload) == []
    assert miner.phase == "aborted"
    assert miner.aborted_reason == UnexpectedMessage.__name__
    assert "session 'other'" in miner.aborted_message


def test_forged_sender_field_rejected(three_partitions):
    net, miner, _, _ = _session(three_partitions)
    miner.bootstrap()
    payload = Msg(KIND_CASES_REF_RES, "pharma", "s1", {"iids": []}, NONCE).encode()
    assert miner.handle("hospital", payload) == []
    assert miner.phase == "aborted"
    assert miner.aborted_reason == UnexpectedMessage.__name__
    assert "forged" in miner.aborted_message


def test_a_quiet_session_aborts_every_node_still_waiting(three_partitions):
    # Nothing was ever sent: the miner never bootstrapped and no provisioner
    # heard from it.
    net, miner, _, provisioners = _session(three_partitions)
    net.run()
    assert (miner.phase, miner.aborted_reason) == ("aborted", "Stalled")
    assert miner.aborted_message == "awaiting refs from clinic, hospital, pharma"
    for p in provisioners.values():
        assert (p.phase, p.aborted_reason) == ("aborted", "Stalled")
        assert p.aborted_message == "awaiting a ref request"


def test_quiet_names_what_each_node_waits_for_and_keeps_the_first_reason(three_partitions):
    _, miner, _, provisioners = _session(three_partitions)
    hospital = provisioners["hospital"]
    request = dict(miner.bootstrap())["hospital"]
    refs = hospital.handle("miner", request)
    assert miner.handle("hospital", refs[0][1]) == []
    for _ in range(2):  # a second quiet changes nothing
        miner.on_quiet()
        hospital.on_quiet()
        assert miner.aborted_message == "awaiting refs from clinic, pharma"
        assert hospital.aborted_message == "awaiting a case request from miner"
    assert miner.aborted_reason == hospital.aborted_reason == "Stalled"


def test_cases_res_before_attestation_aborts(three_partitions):
    # The miner sends its evidence when the last refs arrive, so a cases_res
    # before that point is one that comes before attestation.
    net, miner, _, _ = _session(three_partitions)
    miner.bootstrap()
    for org in ("hospital", "pharma"):
        body = {"iids": sorted(iid_set(three_partitions[org]))}
        assert miner.handle(org, Msg(KIND_CASES_REF_RES, org, "s1", body, NONCE).encode()) == []
    early = Msg(KIND_CASES_RES, "hospital", "s1", {"last": True}, b"").encode()
    assert miner.handle("hospital", early) == []
    assert miner.phase == "aborted"
    assert miner.aborted_reason == UnexpectedMessage.__name__
    assert "cases_res in phase awaiting_refs" in miner.aborted_message
    # An aborted miner drops every later message and keeps its first reason.
    late = Msg(KIND_CASES_REF_RES, "mallory", "s1", {"iids": []}, NONCE).encode()
    assert miner.handle("mallory", late) == []
    assert miner.aborted_reason == UnexpectedMessage.__name__
    assert "cases_res in phase awaiting_refs" in miner.aborted_message


def test_duplicated_traffic_detected(three_partitions):
    # A link that duplicates every message must not corrupt the result; the
    # first replayed control message trips a protocol guard at each node.
    net, miner, sink, provisioners = _session(
        three_partitions, network_cls=LossyNetwork, seed=3
    )
    net.duplicate_prob = 1.0
    net.bootstrap()
    net.run()
    assert miner.phase == "aborted"
    assert miner.aborted_reason == DuplicateResponse.__name__
    for p in provisioners.values():
        assert p.phase == "aborted"
        assert p.aborted_reason == UnexpectedMessage.__name__
    assert sink.cases == []


class UnderAdvertisingProvisioner(Provisioner):
    """Advertises one case; a provisioner ships its whole partition anyway."""

    def _on_cases_ref_req(self, msg):
        super()._on_cases_ref_req(msg)
        return [(msg.sender, self._msg(KIND_CASES_REF_RES, {"iids": ["312"]}, self.nonce))]


def test_unrequested_case_aborts_session(three_partitions):
    provisioners = {
        "hospital": _provisioner(
            "hospital", three_partitions["hospital"], cls=UnderAdvertisingProvisioner
        ),
        "pharma": _provisioner("pharma", three_partitions["pharma"]),
        "clinic": _provisioner("clinic", three_partitions["clinic"]),
    }
    net, miner, sink, _ = _session(
        three_partitions, provisioners=provisioners
    )
    net.bootstrap()
    net.run()
    assert miner.phase == "aborted"
    assert miner.aborted_reason == UnexpectedIid.__name__


class SilentStreamProvisioner(Provisioner):
    """Advertises cases but then ends its stream without sending any."""

    def _on_cases_req(self, msg):
        super()._on_cases_req(msg)
        return [(msg.sender, self._msg(KIND_CASES_RES, {"last": True}, b""))]


def test_empty_stream_while_owing_cases_aborts(three_partitions):
    provisioners = {
        "hospital": _provisioner("hospital", three_partitions["hospital"]),
        "pharma": _provisioner(
            "pharma", three_partitions["pharma"], cls=SilentStreamProvisioner
        ),
        "clinic": _provisioner("clinic", three_partitions["clinic"]),
    }
    net, miner, _, _ = _session(three_partitions, provisioners=provisioners)
    net.bootstrap()
    net.run()
    assert miner.phase == "aborted"
    assert miner.aborted_reason == IncompleteDelivery.__name__


def test_provisioner_with_empty_partition(three_partitions):
    partitions = dict(three_partitions)
    partitions["archive"] = EventLog()
    net, miner, sink, provisioners = _run_to_done(
        partitions, do_yield=True, network_cls=RecordingNetwork
    )
    assert miner.phase == "done"
    assert provisioners["archive"].phase == "done"
    assert [(m.body, m.blob) for m in _streams(net)["archive"]] == [({"last": True}, b"")]
    assert merge_all(sink.cases) == merge_all(three_partitions.values())


def test_a_partition_with_another_orgs_events_is_refused(three_partitions):
    # Every clinic event labelled as pharma's, and one pharma event among
    # hospital's own: neither provisioner is built.
    clinic = log_from_events(
        ev._replace(provisioner_id="pharma") for ev in three_partitions["clinic"]
    )
    with pytest.raises(ValueError, match="^partition of clinic holds events of pharma$"):
        _provisioner("clinic", clinic)
    hospital = merge_all([three_partitions["hospital"], three_partitions["pharma"]])
    with pytest.raises(ValueError, match="^partition of hospital holds events of pharma$"):
        _provisioner("hospital", hospital)


def test_an_empty_plan_agrees_no_stream_key(three_partitions):
    # A provisioner with nothing to send appraises the evidence, then sends
    # only the end mark: no key agreement and no sender proof for it.
    partitions = {"hospital": three_partitions["hospital"], "archive": EventLog()}
    agree = mock.patch.object(protocol, "new_stream_key", wraps=protocol.new_stream_key)
    sign = mock.patch.object(protocol, "sign_stream", wraps=protocol.sign_stream)
    appraise = mock.patch.object(protocol, "verify_evidence", wraps=protocol.verify_evidence)
    with agree as agrees, sign as signs, appraise as appraisals:
        net, miner, sink, provisioners = _run_to_done(
            partitions, do_yield=True, network_cls=RecordingNetwork
        )
    assert miner.phase == "done"
    assert provisioners["archive"].phase == "done"
    assert appraisals.call_count == 2
    assert agrees.call_count == 1
    assert signs.call_count == 1
    assert [(m.body, m.blob) for m in _streams(net)["archive"]] == [({"last": True}, b"")]
    assert merge_all(sink.cases) == three_partitions["hospital"]


def test_wrong_measurement_stops_everything(three_partitions):
    other = compute_measurement(
        BuildManifest(component="miner", version="t", algorithm="declare")
    )
    provisioners = {
        org: _provisioner(org, part, reference_measurement=other)
        for org, part in three_partitions.items()
    }
    net, miner, sink, _ = _session(three_partitions, provisioners=provisioners)
    net.bootstrap()
    with mock.patch.object(
        protocol, "new_stream_key", wraps=new_stream_key
    ) as agrees, mock.patch.object(protocol, "seal_segment", wraps=seal_segment) as seals:
        net.run()
    # Rejected evidence: no key is agreed and no segment sealed.
    assert agrees.call_count == 0 and seals.call_count == 0
    for p in provisioners.values():
        assert (p.phase, p.aborted_reason) == ("aborted", "EvidenceRejected")
        assert p.aborted_message == "measurement_mismatch"
    assert (miner.phase, miner.aborted_reason) == ("aborted", "Stalled")
    assert miner.aborted_message == "awaiting cases from clinic, hospital, pharma"
    assert sink.cases == []
    assert miner.accountant.peak_bytes == 0


def test_unknown_miner_is_refused(three_partitions):
    provisioner = _provisioner(
        "hospital",
        three_partitions["hospital"],
        allowed_miners=frozenset({"org:somebody-else"}),
    )
    net = InProcessNetwork(seed=0)
    sink = CollectorSink()
    miner = SecureMiner(
        MinerConfig(
            miner_id="miner",
            org_proof=MINER_PROOF,
            seg_size=10_000,
            do_yield_cases=True,
            manifest=MANIFEST,
            session="s1",
            provisioner_keys={"hospital": provisioner.config.identity.public_bytes},
        ),
        sink,
    )
    net.register(miner)
    net.register(provisioner)
    net.bootstrap()
    net.run()
    assert (provisioner.phase, provisioner.aborted_reason) == ("aborted", "MinerRefused")
    assert "'org:miner' is not on the allow-list" in provisioner.aborted_message
    assert provisioner.nonce is None  # refused before it drew a nonce or sent refs
    assert (miner.phase, miner.aborted_reason) == ("aborted", "Stalled")
    assert miner.aborted_message == "awaiting refs from hospital"
    assert sink.cases == []


def test_capacity_cap_trips_on_batch(three_partitions):
    from enclavemine.enclave import CapacityExceeded

    full = merge_all(three_partitions.values())
    # Streaming needs at most the stored cases plus one transient plaintext
    # segment; doubling the stored log at the final merge does not fit.
    cap = size_of(full) + size_of(three_partitions["hospital"]) + 80
    net, miner, _, _ = _session(three_partitions, do_yield=False, capacity=cap)
    net.bootstrap()
    net.run()
    assert miner.phase == "aborted"
    assert miner.aborted_reason == CapacityExceeded.__name__
    # The abort frees every stored case.
    assert miner.cstor == {} and miner.csize == {}
    assert miner.accountant.current_bytes == 0
    # The same budget is comfortable when cases are yielded as they finish.
    net2, miner2, _, _ = _session(three_partitions, do_yield=True, capacity=cap)
    net2.bootstrap()
    net2.run()
    assert miner2.phase == "done"


def test_phase_labels_follow_the_flow(three_partitions):
    net, miner, _, _ = _session(three_partitions)
    labels = []
    net.on_delivered = lambda rec: labels.append(miner.phase_label)
    net.bootstrap()
    net.run()
    assert labels[0] == "initialization"
    assert "attestation" in labels
    assert "transmission" in labels
    assert labels[-1] == "computation"


ORGS = ("clinic", "hospital", "pharma")


def _random_partitions(seed, n_cases=40):
    log = make_random_log(random.Random(seed), n_cases, list(ORGS))
    return {
        org: log_from_events(ev for ev in log if ev.provisioner_id == org)
        for org in ORGS
    }


@pytest.mark.filterwarnings("ignore:.* exceed seg_size")
@pytest.mark.parametrize("do_yield", [True, False])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_accountant_tracks_stored_case_encodings(seed, do_yield):
    # Oracle: the accountant's figure between deliveries is what encoding
    # every stored case, merged from its fragments, would measure. A small
    # budget spreads each case over several segments per provisioner, so
    # partial cases pile up.
    partitions = _random_partitions(seed)
    net, miner, sink, _ = _session(partitions, seg_size=120, do_yield=do_yield, seed=seed)
    most_stored = 0

    def check(record):
        nonlocal most_stored
        sizes = {
            iid: len(encode_log(log_from_events(ev for fragment in fragments for ev in fragment)))
            for iid, fragments in miner.cstor.items()
        }
        assert miner.csize == sizes
        assert miner.accountant.current_bytes == sum(sizes.values())
        most_stored = max(most_stored, len(sizes))

    net.on_delivered = check
    net.bootstrap()
    net.run()
    assert miner.phase == "done"
    assert miner.accountant.current_bytes == 0
    assert most_stored >= 2
    assert merge_all(sink.cases) == merge_all(partitions.values())


@pytest.mark.filterwarnings("ignore:.* exceed seg_size")
@pytest.mark.parametrize("do_yield", [True, False])
def test_each_case_is_merged_once(do_yield):
    # Ingest stores each case's fragments unmerged; a session merges each
    # case once, from its fragments: when it completes in incremental mode,
    # at the end in batch mode. Nothing decodes a segment twice or merges
    # fragments pairwise.
    partitions = _random_partitions(3)
    net, miner, sink, _ = _session(partitions, seg_size=120, do_yield=do_yield, seed=3)
    merges = mock.patch.object(protocol, "log_from_events", wraps=protocol.log_from_events)
    pairwise = mock.patch.object(protocol, "merge", wraps=protocol.merge)
    decodes = mock.patch.object(protocol, "decode_log", wraps=protocol.decode_log)
    with merges as merged, pairwise as merged_pairwise, decodes as decoded:
        net.bootstrap()
        net.run()
    assert miner.phase == "done"
    full = merge_all(partitions.values())
    assert merged.call_count == len(iid_set(full))
    assert merged_pairwise.call_count == 0
    assert decoded.call_count == 0
    assert merge_all(sink.cases) == full


@pytest.mark.filterwarnings("ignore:.* exceed seg_size")
@pytest.mark.parametrize("do_yield", [True, False])
def test_session_encodes_once_per_segment(monkeypatch, do_yield):
    # Sizes come from arithmetic, so the only encodings are the ones sealed,
    # and ingest splits each segment in one pass instead of per-iid scans.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (protocol, segmenter):
        monkeypatch.setattr(module, "encode_log", counted("encode_log", module.encode_log))
    for module in (protocol, model):
        monkeypatch.setattr(module, "extract_case", counted("extract_case", module.extract_case))
    net, miner, _, provisioners = _session(
        _random_partitions(7), seg_size=300, do_yield=do_yield, seed=7,
        network_cls=RecordingNetwork,
    )
    net.bootstrap()
    net.run()
    assert miner.phase == "done"
    sealed = sum(_sealed(net).values())
    assert sealed > len(provisioners)
    assert calls["encode_log"] == sealed
    assert calls["extract_case"] == 0


def test_a_provisioner_encodes_a_segment_only_when_it_sends_it(monkeypatch):
    # About 40 segments, more than the first credit (10 segments' bytes) lets
    # out: answering the case request plans them all, but builds no log and
    # encodes only the segments it sends; each later segment is encoded once,
    # when a grant lets it out.
    partition = make_random_log(random.Random(11), 160, ["hospital"])
    seg_size = size_of(partition) // 33
    plan = segment_event_log(partition, seg_size)
    sizes = [size_of(seg) for seg in plan.segments]
    assert 35 <= len(sizes) <= 45
    # The first window: segments go out while the bytes sent are below the credit.
    credit = protocol.CREDIT_SEGMENTS * seg_size
    window = next(k for k in range(1, len(sizes)) if sum(sizes[:k]) >= credit)
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(protocol, "encode_log", counted("encoded", protocol.encode_log))
    post_init = counted("built", model.EventLog.__post_init__)
    monkeypatch.setattr(model.EventLog, "__post_init__", post_init)
    on_cases_req = Provisioner._on_cases_req
    at_request = {}

    def answering(self, msg):
        before = {name: counts[name] for name in ("built", "encoded")}
        sends = on_cases_req(self, msg)
        at_request.update({name: counts[name] - n for name, n in before.items()}, sent=len(sends))
        return sends

    monkeypatch.setattr(Provisioner, "_on_cases_req", answering)
    net, miner, _, _ = _session(
        {"hospital": partition}, seg_size=seg_size, network_cls=RecordingNetwork
    )
    net.bootstrap()
    net.run()
    assert miner.phase == "done"
    assert at_request == {"built": 0, "encoded": window, "sent": window}
    assert counts["encoded"] == _sealed(net)["hospital"] == len(sizes)


def test_a_provisioner_sizes_a_case_only_when_its_segment_is_cut(monkeypatch):
    # The partition of the test above. Answering the case request sizes the
    # cases of the segments the first credit lets out, and the one case
    # after them, which closed the last of those segments; a provisioner
    # that gets no grant after that never sizes the rest.
    partition = make_random_log(random.Random(11), 160, ["hospital"])
    seg_size = size_of(partition) // 33
    segments = segment_event_log(partition, seg_size).segments
    credit = protocol.CREDIT_SEGMENTS * seg_size
    window = next(k for k in range(1, len(segments)) if sum(map(size_of, segments[:k])) >= credit)
    iids = sorted(iid_set(partition))
    opened = iids[: sum(len(iid_set(seg)) for seg in segments[:window]) + 1]
    assert len(opened) < len(iids)
    sized = []
    encoded_size = segmenter.encoded_size

    def sizing(events):
        events = list(events)
        sized.append(events[0].iid)
        return encoded_size(events)

    monkeypatch.setattr(segmenter, "encoded_size", sizing)
    _, miner, _, provisioners = _session({"hospital": partition}, seg_size=seg_size)
    hospital = provisioners["hospital"]
    ((_, request),) = miner.bootstrap()
    ((_, refs),) = hospital.handle("miner", request)
    ((_, case_request),) = miner.handle("hospital", refs)
    assert len(hospital.handle("miner", case_request)) == window
    assert sized == opened
    hospital.on_quiet()
    assert (hospital.phase, hospital.aborted_message) == ("aborted", "awaiting a grant from miner")
    assert sized == opened


def _credits(net, receiver):
    """The credit of each grant sent to ``receiver``, in send order."""
    return [
        msg.body["credit"]
        for msg, to in zip(net.sent, net.receivers)
        if msg.kind == KIND_CASES_GRANT and to == receiver
    ]


@pytest.mark.filterwarnings("ignore:.* exceed seg_size")
def test_a_stream_past_its_first_credit_is_granted_more_in_steps_of_the_budget():
    partitions = _random_partitions(4, n_cases=60)
    net, miner, sink, provisioners = _run_to_done(
        partitions, seg_size=100, network_cls=RecordingNetwork, seed=4
    )
    assert miner.phase == "done"
    budget = protocol.CREDIT_SEGMENTS * 100
    granted = 0
    for org, p in provisioners.items():
        credits = _credits(net, org)
        granted += len(credits)
        assert credits == [budget * (i + 2) for i in range(len(credits))]
        # The last segment was sent while credit was left, and every credit
        # but the last was used up before the next came.
        last = segment_event_log(partitions[org], 100).segments[-1]
        assert p.phase == "done" and p.credit == budget * (len(credits) + 1)
        assert p.sent - size_of(last) < p.credit
        assert p.sent >= p.credit - budget
    assert granted
    assert merge_all(sink.cases) == merge_all(partitions.values())


@pytest.mark.filterwarnings("ignore:.* exceed seg_size")
def test_a_batch_session_grants_each_stream_once_for_all_it_has_left():
    # Batch mode holds every case to the end, so credit is not withheld: a
    # blocked stream's one grant covers the rest of it.
    partitions = _random_partitions(4, n_cases=60)
    net, miner, sink, provisioners = _run_to_done(
        partitions, seg_size=100, do_yield=False, network_cls=RecordingNetwork, seed=4
    )
    assert miner.phase == "done"
    credits = [_credits(net, org) for org in provisioners]
    assert [c for c in credits if c] and all(c in ([], [2**63 - 1]) for c in credits)
    assert merge_all(sink.cases) == merge_all(partitions.values())


class GrantWatchingNetwork(InProcessNetwork):
    """Records, as the miner sends each cases_grant, its receiver, the
    smallest stored iid (None when nothing is stored) and the iids the
    receiver still owes. The miner's handler has returned by then, so this
    is its state when it granted."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.grants = []

    def send(self, sender, receiver, payload):
        super().send(sender, receiver, payload)
        if Msg.decode(payload).kind == KIND_CASES_GRANT:
            miner = self._nodes[sender]
            oldest = min(miner.cstor) if miner.cstor else None
            self.grants.append((receiver, oldest, set(miner.streams[receiver].owed)))


@pytest.mark.filterwarnings("ignore:.* exceed seg_size")
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_an_incremental_grant_goes_only_to_the_stream_that_owes_the_oldest_case(seed):
    # Credit withheld from a stream that does not owe the oldest stored case
    # keeps that stream from running ahead in case order, whatever is stored.
    net, miner, _, _ = _run_to_done(
        _random_partitions(seed, n_cases=60), seg_size=100, network_cls=GrantWatchingNetwork
    )
    assert miner.phase == "done" and net.grants
    for receiver, oldest, owed in net.grants:
        assert oldest is None or oldest in owed, (receiver, oldest)


@pytest.mark.filterwarnings("ignore:.* exceed seg_size")
@pytest.mark.parametrize("seg_size", [1, 10, 30])
def test_a_segment_past_the_credit_by_more_than_b_does_not_stall_the_stream(seg_size):
    # Every case ships alone, and hospital's (about 500 bytes) are bigger than
    # B = CREDIT_SEGMENTS * seg_size, so one segment can take the bytes
    # received past the credit by B or more: a grant must still lift the
    # credit above them, or the stream never sends again.
    cfg = experiment.ExperimentConfig(n_cases=10, seed=1, seg_size=seg_size)
    result = experiment.run_experiment(cfg)
    assert (result.miner_phase, result.aborted_message) == ("done", "")
    log = merge_all(experiment._load_inputs(cfg).values())
    assert result.output == experiment.standalone_mining(log, cfg.algorithm)


def _peak_bound(partitions, seg_size):
    """The incremental peak bound of the protocol docstring: per stream the
    most that the cases of one window cost stored, plus the largest
    segment's plaintext, held while it is ingested."""
    budget = protocol.CREDIT_SEGMENTS * seg_size
    bound = 0
    largest = 0
    for part in partitions.values():
        segments = segment_event_log(part, seg_size).segments
        plain = [size_of(s) for s in segments]
        stored = [n + EMPTY_LOG_SIZE * (len(iid_set(s)) - 1) for n, s in zip(plain, segments)]
        most = 0
        for start in range(len(segments)):
            sent = cost = 0
            for n, c in zip(plain[start:], stored[start:]):
                if sent >= budget:
                    break
                sent, cost = sent + n, cost + c
            most = max(most, cost)
        bound += most
        largest = max([largest, *plain])
    return bound + largest


@pytest.mark.filterwarnings("ignore:.* exceed seg_size")
@settings(max_examples=60, deadline=None)
@given(
    log_seed=st.integers(0, 2**32 - 1),
    n_cases=st.integers(1, 60),
    # Small enough that most draws grant credit: a partition here is a few KB.
    # Near 1 byte a case can be bigger than B and overshoot the credit by B.
    seg_size=st.integers(1, 300),
    schedule=st.integers(0, 2**32 - 1),
    incremental=st.booleans(),
    algorithm=st.sampled_from(list(experiment.ALGORITHMS)),
)
def test_any_session_under_credit_ends_done_with_the_standalone_output(
    log_seed, n_cases, seg_size, schedule, incremental, algorithm
):
    # Random partitions, budgets and delivery orders: every session ends
    # done with the bytes of mining the merged log directly, and in
    # incremental mode the enclave's peak stays under the docstring's bound.
    # This samples orders; it does not walk them all.
    log = make_random_log(random.Random(log_seed), n_cases, list(ORGS))
    partitions = {
        org: log_from_events(ev for ev in log if ev.provisioner_id == org) for org in ORGS
    }
    sink = experiment.HeuristicsSink() if algorithm == "heuristics" else experiment.DeclareSink()
    net, miner, provisioners = experiment.build_session(
        partitions,
        seed=schedule,
        seg_size=seg_size,
        incremental=incremental,
        sink=sink,
        manifest=experiment.build_manifest(algorithm),
    )
    net.bootstrap()
    net.run()
    assert miner.phase == "done"
    assert all(p.phase == "done" for p in provisioners)
    assert sink.finalize_bytes() == experiment.standalone_mining(log, algorithm)
    if incremental:
        assert miner.accountant.peak_bytes <= _peak_bound(partitions, seg_size)
