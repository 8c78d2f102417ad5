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

Per-case fitness is the fraction of satisfied constraints, kept as an exact
rational; the aggregate over a log is the arithmetic mean of case values.
Checking is per-case, so streaming cases one at a time and checking a whole
log agree exactly.
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
    "CaseResult",
    "FitnessReport",
    "check_case",
    "ConformanceState",
    "fitness_report_json",
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
        last_a = max((i for i, x in enumerate(seq) if x == a), default=None)
        if last_a is None:
            return True
        return b in seq[last_a + 1 :]
    if t == "precedence":
        first_b = next((i for i, x in enumerate(seq) if x == b), None)
        if first_b is None:
            return True
        return a in seq[:first_b]
    if t == "succession":
        return _holds(Constraint("response", a, b), seq) and _holds(
            Constraint("precedence", a, b), seq
        )
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


@dataclass(frozen=True)
class CaseResult:
    iid: str
    satisfied: Tuple[bool, ...]
    fitness: Fraction

    def violated_labels(self, model: DeclareModel) -> Tuple[str, ...]:
        return tuple(
            c.label() for c, ok in zip(model.constraints, self.satisfied) if not ok
        )


def check_case(model: DeclareModel, case: EventLog) -> CaseResult:
    if not case:
        raise EmptyCase("cannot check an empty case")
    if not case.is_case():
        raise ValueError("log spans multiple iids; check one case at a time")
    seq = case.activities()
    flags = tuple(_holds(c, seq) for c in model.constraints)
    return CaseResult(
        iid=case.events[0].iid,
        satisfied=flags,
        fitness=Fraction(sum(flags), len(flags)),
    )


@dataclass(frozen=True)
class FitnessReport:
    per_trace: Tuple[CaseResult, ...]
    aggregate: Fraction
    violations: Tuple[Tuple[str, int], ...]


class ConformanceState:
    """Accumulates per-case results; order of arrival never matters."""

    def __init__(self, model: DeclareModel):
        self.model = model
        self._results: Dict[str, CaseResult] = {}

    def add_case(self, case: EventLog) -> CaseResult:
        res = check_case(self.model, case)
        self._results[res.iid] = res
        return res

    def finalize(self) -> FitnessReport:
        if not self._results:
            raise EmptyCase("no cases checked")
        ordered = tuple(self._results[iid] for iid in sorted(self._results))
        agg = sum((r.fitness for r in ordered), Fraction(0)) / len(ordered)
        counts: Dict[str, int] = {c.label(): 0 for c in self.model.constraints}
        for r in ordered:
            for c, ok in zip(self.model.constraints, r.satisfied):
                if not ok:
                    counts[c.label()] += 1
        return FitnessReport(
            per_trace=ordered,
            aggregate=agg,
            violations=tuple(sorted(counts.items())),
        )


def _frac_str(f: Fraction) -> str:
    return "%d/%d" % (f.numerator, f.denominator)


def fitness_report_json(report: FitnessReport, model: DeclareModel) -> bytes:
    """Deterministic JSON rendering with exact rationals alongside floats."""
    doc = {
        "aggregate": float(report.aggregate),
        "aggregate_exact": _frac_str(report.aggregate),
        "constraints": [c.label() for c in model.constraints],
        "n_cases": len(report.per_trace),
        "per_trace": {
            r.iid: {
                "fitness": float(r.fitness),
                "fitness_exact": _frac_str(r.fitness),
                "violated": list(r.violated_labels(model)),
            }
            for r in report.per_trace
        },
        "violations": dict(report.violations),
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
