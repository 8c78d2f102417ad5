"""Declarative constraint checking over cases.

Supported templates and their truth conditions on an activity sequence
``s`` (n = number of occurrences of the argument):

======================  =====================================================
existence(a)            n(a) >= 1
absence(a)              n(a) == 0
exactly_one(a)          n(a) == 1
init(a)                 s starts with a
end(a)                  s ends with a
responded_existence     a occurs  ->  b occurs somewhere
response(a, b)          every a is eventually followed by a b
precedence(a, b)        every b has some a before it
succession(a, b)        response(a, b) and precedence(a, b)
chain_response(a, b)    every a is immediately followed by b
chain_precedence(a, b)  every b is immediately preceded by a
not_succession(a, b)    no a is ever followed (even later) by a b
======================  =====================================================

Unary templates ignore ``b``. Constraints whose activation never occurs are
vacuously satisfied (e.g. response(a, b) on a trace without a).

The state is one bitmask per case: bit ``i`` is set when the model's
``i``-th constraint holds. Fitness is computed exactly when the report is
rendered: a case's is the fraction of satisfied constraints, and the
aggregate over a log is the mean of the case values, ``sum(held) / (n * m)``
for ``n`` constraints and ``m`` cases. Checking is per-case, so streaming
cases one at a time and checking a whole log agree exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from ..model import EventLog
from .dfg import EmptyCase

__all__ = [
    "TEMPLATES",
    "Constraint",
    "DeclareModel",
    "case_mask",
    "ConformanceState",
]

TEMPLATES = (
    "existence",
    "absence",
    "exactly_one",
    "init",
    "end",
    "responded_existence",
    "response",
    "precedence",
    "succession",
    "chain_response",
    "chain_precedence",
    "not_succession",
)

_UNARY = {"existence", "absence", "exactly_one", "init", "end"}


@dataclass(frozen=True)
class Constraint:
    template: str
    a: str
    b: Optional[str] = None

    def __post_init__(self) -> None:
        if self.template not in TEMPLATES:
            raise ValueError("unknown template %r" % self.template)
        if self.template in _UNARY:
            if self.b is not None:
                raise ValueError("%s takes one activity" % self.template)
        elif self.b is None:
            raise ValueError("%s takes two activities" % self.template)

    def label(self) -> str:
        if self.b is None:
            return "%s(%s)" % (self.template, self.a)
        return "%s(%s,%s)" % (self.template, self.a, self.b)


@dataclass(frozen=True)
class DeclareModel:
    constraints: Tuple[Constraint, ...]

    def __post_init__(self) -> None:
        if not self.constraints:
            raise ValueError("model needs at least one constraint")


def _response(a: str, b: str, seq: Sequence[str]) -> bool:
    last_a = max((i for i, x in enumerate(seq) if x == a), default=None)
    return last_a is None or b in seq[last_a + 1 :]


def _precedence(a: str, b: str, seq: Sequence[str]) -> bool:
    first_b = next((i for i, x in enumerate(seq) if x == b), None)
    return first_b is None or a in seq[:first_b]


def _holds(c: Constraint, seq: Sequence[str]) -> bool:
    a, b = c.a, c.b
    t = c.template
    if t == "existence":
        return a in seq
    if t == "absence":
        return a not in seq
    if t == "exactly_one":
        return sum(1 for x in seq if x == a) == 1
    if t == "init":
        return bool(seq) and seq[0] == a
    if t == "end":
        return bool(seq) and seq[-1] == a
    if t == "responded_existence":
        return (a not in seq) or (b in seq)
    if t == "response":
        return _response(a, b, seq)
    if t == "precedence":
        return _precedence(a, b, seq)
    if t == "succession":
        return _response(a, b, seq) and _precedence(a, b, seq)
    if t == "chain_response":
        return all(
            i + 1 < len(seq) and seq[i + 1] == b
            for i, x in enumerate(seq)
            if x == a
        )
    if t == "chain_precedence":
        return all(i > 0 and seq[i - 1] == a for i, x in enumerate(seq) if x == b)
    if t == "not_succession":
        first_a = next((i for i, x in enumerate(seq) if x == a), None)
        if first_a is None:
            return True
        return b not in seq[first_a + 1 :]
    raise AssertionError("unhandled template %s" % t)


def case_mask(model: DeclareModel, case: EventLog) -> int:
    """Bit ``i`` is set when ``model.constraints[i]`` holds on ``case``."""
    if not case:
        raise EmptyCase("cannot check an empty case")
    if not case.is_case():
        raise ValueError("log spans multiple iids; check one case at a time")
    seq = case.activities()
    return sum(1 << i for i, c in enumerate(model.constraints) if _holds(c, seq))


def _frac_str(f: Fraction) -> str:
    return "%d/%d" % (f.numerator, f.denominator)


class ConformanceState:
    """One bitmask per case; order of arrival never matters."""

    def __init__(self, model: DeclareModel):
        self.model = model
        self._masks: Dict[str, int] = {}

    def add_case(self, case: EventLog) -> None:
        mask = case_mask(self.model, case)
        self._masks[case.events[0].iid] = mask

    def report_json(self) -> bytes:
        """Deterministic JSON rendering with exact rationals alongside floats."""
        if not self._masks:
            raise EmptyCase("no cases checked")
        labels = [c.label() for c in self.model.constraints]
        n = len(labels)
        violations = dict.fromkeys(labels, 0)
        per_trace = {}
        held_total = 0
        for iid, mask in sorted(self._masks.items()):
            violated = [label for i, label in enumerate(labels) if not mask >> i & 1]
            for label in violated:
                violations[label] += 1
            held = n - len(violated)
            held_total += held
            fitness = Fraction(held, n)
            per_trace[iid] = {
                "fitness": float(fitness),
                "fitness_exact": _frac_str(fitness),
                "violated": violated,
            }
        aggregate = Fraction(held_total, n * len(per_trace))
        doc = {
            "aggregate": float(aggregate),
            "aggregate_exact": _frac_str(aggregate),
            "constraints": labels,
            "n_cases": len(per_trace),
            "per_trace": per_trace,
            "violations": violations,
        }
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
