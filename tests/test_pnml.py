import xml.etree.ElementTree as ET

from enclavemine.mining.dfg import DfgState, hm_observe
from enclavemine.mining.heuristics import hm_finalize
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
