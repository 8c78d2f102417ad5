"""Synthetic inter-organizational treatment scenario.

Three organizations run one process over shared case ids: a hospital
(admission, diagnostics, therapy choice, discharge paperwork), a pharma
supplier (order, delivery, shipping), and a rehab clinic (the transfer
path). Each case follows one of two variants after the common prefix:

* long (18 events): therapy planning and the clinic transfer path
* short (12 events): radiotherapy in-house, straight to discharge

The short variant is drawn with probability 2/3, putting the mean case
length at 14 events; lengths stay within [12, 18]. The union of both
variants covers 19 distinct activities split 11/3/5 across the three
organizations. ``loop_iterations`` > 1 replays the chosen variant from the
third activity onward, which adds 16 events per extra long-variant pass
(10 per short one): a case can reach at most 18 + 16*(loop_iterations - 1)
events.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from .mining.declare import Constraint, DeclareModel
from .model import Event, EventLog, log_from_events

__all__ = [
    "LONG_VARIANT",
    "SHORT_VARIANT",
    "ALL_ACTIVITIES",
    "ORG_HOSPITAL",
    "ORG_PHARMA",
    "ORG_CLINIC",
    "default_org_map",
    "org_map_for",
    "generate_scenario_log",
    "scenario_declare_model",
    "max_case_events",
]

LONG_VARIANT: Tuple[str, ...] = (
    "PH", "COPA", "OD", "DOR", "PDL", "SD", "RD", "AD", "TP",
    "PAFH", "PIA", "PT", "VRT", "TPB", "RPB", "DPH", "PCD", "DP",
)
SHORT_VARIANT: Tuple[str, ...] = (
    "PH", "COPA", "OD", "DOR", "PDL", "SD", "RD", "AD", "PRTA",
    "PCD", "DPH", "DP",
)

ALL_ACTIVITIES: Tuple[str, ...] = (
    "PH", "COPA", "OD", "DOR", "PDL", "SD", "RD", "AD", "TP", "PRTA",
    "PAFH", "PIA", "PT", "VRT", "TPB", "RPB", "DPH", "PCD", "DP",
)

ORG_HOSPITAL = "hospital"
ORG_PHARMA = "pharma"
ORG_CLINIC = "clinic"

_PHARMA_ACTIVITIES = frozenset({"DOR", "PDL", "SD"})
_CLINIC_ACTIVITIES = frozenset({"PAFH", "PIA", "PT", "VRT", "TPB"})

# Probability of the short (radiotherapy) variant; fixes the mean at 14.
_SHORT_PROB = 2.0 / 3.0

# 2022-07-14T08:00:00Z
_BASE_MS = 1_657_785_600_000

# Number of leading activities shared by one hospitalization across loop
# iterations; replays re-enter after them.
_LOOP_REENTRY = 2


def default_org_map() -> Dict[str, str]:
    out = {}
    for act in ALL_ACTIVITIES:
        if act in _PHARMA_ACTIVITIES:
            out[act] = ORG_PHARMA
        elif act in _CLINIC_ACTIVITIES:
            out[act] = ORG_CLINIC
        else:
            out[act] = ORG_HOSPITAL
    return out


def org_map_for(n_orgs: int) -> Dict[str, str]:
    """Activity-to-org map for a given org count (3 gives the named split);
    each org gets at least one of the activities, so at most 19 orgs."""
    if n_orgs < 1:
        raise ValueError("need at least one org")
    if n_orgs > len(ALL_ACTIVITIES):
        raise ValueError(
            "need at most %d orgs, one per activity, got %d" % (len(ALL_ACTIVITIES), n_orgs)
        )
    if n_orgs == 3:
        return default_org_map()
    return {
        act: "org%d" % (i % n_orgs + 1) for i, act in enumerate(ALL_ACTIVITIES)
    }


def max_case_events(loop_iterations: int) -> int:
    return len(LONG_VARIANT) + (len(LONG_VARIANT) - _LOOP_REENTRY) * (loop_iterations - 1)


def generate_scenario_log(
    n_cases: int,
    seed: int,
    *,
    loop_iterations: int = 1,
    org_map: Optional[Dict[str, str]] = None,
) -> EventLog:
    if n_cases < 1:
        raise ValueError("need at least one case")
    if loop_iterations < 1:
        raise ValueError("loop_iterations must be at least 1")
    if org_map is None:
        org_map = default_org_map()
    rng = random.Random(seed)
    draw = rng.getrandbits
    # Builds an Event from a tuple of its fields in C, without the Python
    # frame of the named tuple's own constructor.
    new_event = tuple.__new__
    suffixes = ["-e%04d" % k for k in range(max_case_events(loop_iterations))]
    events = []
    for i in range(n_cases):
        iid = "case%05d" % i
        # The two draws inline what rng.randint does (Python 3.10 and later):
        # randint(a, b) draws k = (b - a + 1).bit_length() bits and redraws
        # while the value is past b - a. Same numbers from the same seed,
        # without randint's three Python frames per draw.
        start = draw(19)  # randint(0, 300_000)
        while start > 300_000:
            start = draw(19)
        t = _BASE_MS + i * 600_000 + start
        sequence = []
        for iteration in range(loop_iterations):
            variant = SHORT_VARIANT if rng.random() < _SHORT_PROB else LONG_VARIANT
            sequence.extend(variant if iteration == 0 else variant[_LOOP_REENTRY:])
        for act, suffix in zip(sequence, suffixes):
            gap = draw(7)  # randint(5, 120) - 5
            while gap >= 116:
                gap = draw(7)
            t += (gap + 5) * 60_000
            events.append(new_event(Event, (iid + suffix, iid, act, t, org_map[act], ())))
    return log_from_events(events)


def scenario_declare_model() -> DeclareModel:
    """Reference constraint set for the scenario, one per template.

    chain_response(AD, TP) separates the variants (the short one violates
    it), so per-case fitness is 12/12 or 11/12 and the aggregate is a
    nontrivial rational.
    """
    return DeclareModel(
        (
            Constraint("existence", "PH"),
            Constraint("absence", "XRAY"),
            Constraint("exactly_one", "OD"),
            Constraint("init", "PH"),
            Constraint("end", "DP"),
            Constraint("responded_existence", "TP", "PAFH"),
            Constraint("response", "OD", "DOR"),
            Constraint("precedence", "AD", "PRTA"),
            Constraint("succession", "PH", "DP"),
            Constraint("chain_response", "AD", "TP"),
            Constraint("chain_precedence", "RD", "AD"),
            Constraint("not_succession", "DP", "OD"),
        )
    )
