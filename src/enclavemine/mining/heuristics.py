"""Heuristic net discovery from directly-follows statistics.

Finalization is pure: the same :class:`~enclavemine.mining.dfg.DfgState`
always yields the same workflow net, with every node and arc emitted in
sorted order, so downstream serialization is byte-stable.

Arc selection follows the usual heuristic-miner recipe: keep an arc when its
dependency clears the threshold and sits within ``relative_to_best`` of the
source's best outgoing arc; every activity also keeps its single best
incoming and outgoing arc (the all-connected rule), so the net stays
connected even below threshold. Length-two loops are recovered from a-b-a
pattern counts, length-one loops from the self-dependency measure.

Splits and joins are realized with the AND/XOR binding-to-places
construction: successors of an activity are clustered into XOR groups
(connected components of the pairwise "not parallel" relation under the AND
measure); each group becomes one place, parallel groups get distinct places.
Joins mirror this on the predecessor side. A causal arc whose endpoints sit
in multi-member groups on both sides is routed through a silent transition,
since places cannot feed places. Length-one loops become a same-labeled
transition that cycles the activity's output places.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .dfg import DfgState, dependency

__all__ = [
    "NoObservations",
    "PARAMS",
    "Transition",
    "WorkflowNet",
    "dependency_graph",
    "hm_finalize",
]


class NoObservations(ValueError):
    pass


# Heuristics Miner parameters. PARAMS is what the attested build manifest
# digests of them, the all-connected rule (always on) included.
DEPENDENCY_THRESHOLD = 0.9
RELATIVE_TO_BEST = 0.05
LOOP2_THRESHOLD = 0.9
AND_THRESHOLD = 0.65
PARAMS = (
    ("all_connected", "True"),
    ("and_threshold", repr(AND_THRESHOLD)),
    ("dependency_threshold", repr(DEPENDENCY_THRESHOLD)),
    ("loop2_threshold", repr(LOOP2_THRESHOLD)),
    ("relative_to_best", repr(RELATIVE_TO_BEST)),
)


@dataclass(frozen=True)
class Transition:
    tid: str
    label: Optional[str]


@dataclass(frozen=True)
class WorkflowNet:
    """Petri net with a single source and single sink place."""

    places: Tuple[str, ...]
    transitions: Tuple[Transition, ...]
    arcs: Tuple[Tuple[str, str], ...]
    source: str
    sink: str


def dependency_graph(state: DfgState) -> Set[Tuple[str, str]]:
    """Causal arcs kept by the thresholds (self-loops included as (a, a))."""
    if state.cases_seen == 0:
        raise NoObservations("no cases observed")
    activities = sorted(state.activity_counts)
    arcs: Set[Tuple[str, str]] = set()

    candidates: Dict[str, List[Tuple[str, float]]] = {a: [] for a in activities}
    incoming: Dict[str, List[Tuple[str, float]]] = {a: [] for a in activities}
    for (a, b), count in state.directly_follows.items():
        if a == b or count <= 0:
            continue
        d = dependency(state, a, b)
        candidates[a].append((b, d))
        incoming[b].append((a, d))

    best_out = {a: max((d for _, d in lst), default=None) for a, lst in candidates.items()}
    for a in activities:
        for b, d in candidates[a]:
            if d >= DEPENDENCY_THRESHOLD and (
                best_out[a] is not None and best_out[a] - d <= RELATIVE_TO_BEST
            ):
                arcs.add((a, b))

    for a in activities:
        if candidates[a]:
            # Deterministic tie-break: highest dependency, then smallest label.
            best_d = max(d for _, d in candidates[a])
            choice = min(b for b, d in candidates[a] if d == best_d)
            arcs.add((a, choice))
        if incoming[a]:
            best_d = max(d for _, d in incoming[a])
            choice = min(b for b, d in incoming[a] if d == best_d)
            arcs.add((choice, a))

    seen_l2 = set()
    for (a, b), c1 in state.loop2_counts.items():
        if (b, a) in seen_l2 or a == b:
            continue
        seen_l2.add((a, b))
        c2 = state.loop2_counts[(b, a)]
        measure = (c1 + c2) / (c1 + c2 + 1.0)
        if measure >= LOOP2_THRESHOLD:
            arcs.add((a, b))
            arcs.add((b, a))

    for a in activities:
        if state.directly_follows[(a, a)] > 0 and dependency(state, a, a) >= DEPENDENCY_THRESHOLD:
            arcs.add((a, a))
    return arcs


def _sanitize(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", label)


def _xor_groups(
    members: Sequence[str],
    parallel: "callable",
) -> List[Tuple[str, ...]]:
    """Partition members into XOR groups: parallel members must split apart."""
    members = sorted(members)
    if not members:
        return []
    parent = {m: m for m in members}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, b in enumerate(members):
        for c in members[i + 1 :]:
            if not parallel(b, c):
                ra, rb = find(b), find(c)
                if ra != rb:
                    parent[rb] = ra
    groups: Dict[str, List[str]] = {}
    for m in members:
        groups.setdefault(find(m), []).append(m)
    return sorted(tuple(sorted(g)) for g in groups.values())


def hm_finalize(state: DfgState) -> WorkflowNet:
    """Freeze the counters into a workflow net."""
    arcs = dependency_graph(state)
    activities = sorted(state.activity_counts)
    df = state.directly_follows

    tid_of: Dict[str, str] = {}
    used = set()
    for act in activities:
        tid = "t_" + _sanitize(act)
        n = 2
        while tid in used:
            tid = "t_%s__%d" % (_sanitize(act), n)
            n += 1
        used.add(tid)
        tid_of[act] = tid

    successors = {a: sorted(b for (x, b) in arcs if x == a and b != a) for a in activities}
    predecessors = {b: sorted(a for (a, x) in arcs if x == b and a != b) for b in activities}

    def out_parallel(a: str):
        def rel(b: str, c: str) -> bool:
            m = (df[(b, c)] + df[(c, b)]) / (df[(a, b)] + df[(a, c)] + 1.0)
            return m >= AND_THRESHOLD

        return rel

    def in_parallel(b: str):
        def rel(a: str, c: str) -> bool:
            m = (df[(a, c)] + df[(c, a)]) / (df[(a, b)] + df[(c, b)] + 1.0)
            return m >= AND_THRESHOLD

        return rel

    out_group_of: Dict[Tuple[str, str], Tuple[str, ...]] = {}
    in_group_of: Dict[Tuple[str, str], Tuple[str, ...]] = {}
    for a in activities:
        for group in _xor_groups(successors[a], out_parallel(a)):
            for b in group:
                out_group_of[(a, b)] = group
    for b in activities:
        for group in _xor_groups(predecessors[b], in_parallel(b)):
            for a in group:
                in_group_of[(a, b)] = group

    places: Set[str] = {"source", "sink"}
    net_arcs: Set[Tuple[str, str]] = set()
    extra_transitions: Dict[str, Optional[str]] = {}

    def add_place(pid: str) -> str:
        places.add(pid)
        return pid

    for a in sorted(state.start_counts):
        net_arcs.add(("source", tid_of[a]))
    for a in sorted(state.end_counts):
        net_arcs.add((tid_of[a], "sink"))

    for a, b in sorted(arcs):
        if a == b:
            continue
        g = out_group_of[(a, b)]
        h = in_group_of[(a, b)]
        if len(g) == 1 and len(h) == 1:
            pid = add_place("p__%s__%s" % (_sanitize(a), _sanitize(b)))
            net_arcs.add((tid_of[a], pid))
            net_arcs.add((pid, tid_of[b]))
        elif len(h) == 1:
            pid = add_place("po__%s__%s" % (_sanitize(a), "+".join(_sanitize(x) for x in g)))
            net_arcs.add((tid_of[a], pid))
            net_arcs.add((pid, tid_of[b]))
        elif len(g) == 1:
            pid = add_place("pi__%s__%s" % ("+".join(_sanitize(x) for x in h), _sanitize(b)))
            net_arcs.add((tid_of[a], pid))
            net_arcs.add((pid, tid_of[b]))
        else:
            po = add_place("po__%s__%s" % (_sanitize(a), "+".join(_sanitize(x) for x in g)))
            pi = add_place("pi__%s__%s" % ("+".join(_sanitize(x) for x in h), _sanitize(b)))
            tau = "tau__%s__%s" % (_sanitize(a), _sanitize(b))
            extra_transitions[tau] = None
            net_arcs.add((tid_of[a], po))
            net_arcs.add((po, tau))
            net_arcs.add((tau, pi))
            net_arcs.add((pi, tid_of[b]))

    for a, b in sorted(arcs):
        if a != b:
            continue
        post = sorted(dst for (src, dst) in net_arcs if src == tid_of[a])
        loop_tid = "t_loop__" + _sanitize(a)
        extra_transitions[loop_tid] = a
        for pid in post:
            net_arcs.add((pid, loop_tid))
            net_arcs.add((loop_tid, pid))

    transitions = [Transition(tid_of[a], a) for a in activities]
    transitions.extend(Transition(tid, label) for tid, label in extra_transitions.items())
    transitions.sort(key=lambda t: t.tid)
    return WorkflowNet(
        places=tuple(sorted(places)),
        transitions=tuple(transitions),
        arcs=tuple(sorted(net_arcs)),
        source="source",
        sink="sink",
    )
