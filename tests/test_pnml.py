import hashlib
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape, quoteattr

from hypothesis import given, settings
from hypothesis import strategies as st

from enclavemine.mining import pnml
from enclavemine.mining.dfg import DfgState, hm_observe
from enclavemine.mining.heuristics import Transition, WorkflowNet, hm_finalize
from enclavemine.mining.pnml import to_pnml
from enclavemine.model import Event, EventLog, group_by_iid
from enclavemine.scenario import generate_scenario_log

NS = {"pnml": "http://www.pnml.org/version-2009/grammar/pnml"}


def _net_from(*traces):
    state = DfgState()
    for n, trace in enumerate(traces):
        events = tuple(
            Event(
                event_id="e%d_%d" % (n, i),
                iid="c%d" % n,
                activity=act,
                timestamp=i,
                provisioner_id="p",
            )
            for i, act in enumerate(trace)
        )
        hm_observe(state, EventLog(events))
    return hm_finalize(state)


def test_output_is_well_formed_xml():
    blob = to_pnml(_net_from(["A", "B", "C"]))
    root = ET.fromstring(blob)
    assert root.tag == "{%s}pnml" % NS["pnml"]
    net = root.find("pnml:net", NS)
    assert net.get("id") == "net1"
    assert net.get("type") == "http://www.pnml.org/version-2009/grammar/ptnet"


def test_structure_round_trips_through_xml():
    net = _net_from(["A", "B"], ["A", "C"])
    root = ET.fromstring(to_pnml(net))
    page = root.find("pnml:net/pnml:page", NS)
    place_ids = {p.get("id") for p in page.findall("pnml:place", NS)}
    assert place_ids == set(net.places)
    trans = page.findall("pnml:transition", NS)
    assert {t.get("id") for t in trans} == {t.tid for t in net.transitions}
    labelled = {
        t.get("id"): t.find("pnml:name/pnml:text", NS).text
        for t in trans
        if t.find("pnml:name", NS) is not None
    }
    assert labelled == {t.tid: t.label for t in net.transitions if t.label is not None}
    arc_pairs = {
        (a.get("source"), a.get("target")) for a in page.findall("pnml:arc", NS)
    }
    assert arc_pairs == set(net.arcs)


def test_source_place_carries_single_token():
    net = _net_from(["A", "B"])
    root = ET.fromstring(to_pnml(net))
    markings = {}
    for p in root.find("pnml:net/pnml:page", NS).findall("pnml:place", NS):
        m = p.find("pnml:initialMarking/pnml:text", NS)
        if m is not None:
            markings[p.get("id")] = m.text
    assert markings == {"source": "1"}


def test_serialization_is_byte_stable():
    log = generate_scenario_log(30, seed=2)
    state = DfgState()
    for case in group_by_iid(log).values():
        hm_observe(state, case)
    net = hm_finalize(state)
    assert to_pnml(net) == to_pnml(net)
    # Rebuilding the state from scratch in a different case order must not
    # change a byte.
    state2 = DfgState()
    for case in reversed(list(group_by_iid(log).values())):
        hm_observe(state2, case)
    assert to_pnml(hm_finalize(state2)) == to_pnml(net)


def test_labels_with_markup_are_escaped():
    blob = to_pnml(_net_from(["a<b>", "c&d"]))
    root = ET.fromstring(blob)
    labels = {
        t.find("pnml:name/pnml:text", NS).text
        for t in root.find("pnml:net/pnml:page", NS).findall("pnml:transition", NS)
    }
    assert {"a<b>", "c&d"} <= labels


# Text weighted towards the characters the escaping rules treat specially.
_MARKUP_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from("&<>\"'\n\r\t"), st.characters()), max_size=30
)


@settings(max_examples=500, deadline=None)
@given(text=_MARKUP_TEXT)
def test_escaping_matches_saxutils(text):
    assert pnml._escape(text) == escape(text)
    assert pnml._quoteattr(text) == quoteattr(text)


def test_markup_in_ids_and_labels_serializes_to_golden_bytes():
    # Every id and label below holds characters the escaping rules treat
    # specially; the digest was recorded from the saxutils-based writer.
    net = WorkflowNet(
        places=("source", "sink", 'p"1', "p'2", "p\"'3", "p&<>\n\r\t4"),
        transitions=(
            Transition("t&1", "a&b<c>d"),
            Transition('t"2', 'say "hi"'),
            Transition("t'3", "it's"),
            Transition("t\n\r\t4", "line\nfeed\rreturn\ttab"),
            Transition("t\"'5", None),
        ),
        arcs=(
            ("source", "t&1"),
            ("t&1", 'p"1'),
            ('p"1', 't"2'),
            ('t"2', "p'2"),
            ("p'2", "t'3"),
            ("t'3", "p\"'3"),
            ("p\"'3", "t\n\r\t4"),
            ("t\n\r\t4", "p&<>\n\r\t4"),
            ("p&<>\n\r\t4", "t\"'5"),
            ("t\"'5", "sink"),
        ),
        source="source",
        sink="sink",
    )
    assert (
        hashlib.sha256(to_pnml(net)).hexdigest()
        == "a0958132d46f8424600f6eef655df58bbc97d37f000ca422b55b50fa184521bb"
    )
