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

A case is checked by one table from template to predicate. Each predicate
reads the case's activity tuple and its list of adjacent pairs, both built
once per case, with tuple operations that scan in C (``in``, ``count``,
``index``, slices): response(a, b) holds when there is no a or a b after the
last a, and chain_response(a, b) when the pair (a, b) occurs as often as a.

The state is one bitmask per case: bit ``i`` is set when the model's
``i``-th constraint holds. Fitness is computed exactly when the report is
rendered: a case's is the fraction of satisfied constraints, and the
aggregate over a log is the mean of the case values, ``sum(held) / (n * m)``
for ``n`` constraints and ``m`` cases. Checking is per-case, so streaming
cases one at a time and checking a whole log agree exactly.

The report is ``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline.
Cases share few distinct masks, so each distinct mask's ``per_trace`` entry
is built and rendered once per call, its counts tallied once times the number
of cases that have it; nothing is kept between calls.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..model import EventLog
from .dfg import EmptyCase

__all__ = [
    "TEMPLATES",
    "Constraint",
    "DeclareModel",
    "case_mask",
    "ConformanceState",
]

def _response(s: Tuple[str, ...], pairs: list, a: str, b: str) -> bool:
    return a not in s or b in s[len(s) - s[::-1].index(a) :]


def _precedence(s: Tuple[str, ...], pairs: list, a: str, b: str) -> bool:
    return b not in s or a in s[: s.index(b)]


# Template -> truth condition over a case's activities ``s`` (never empty) and
# its adjacent pairs ``pairs``. Every a is immediately followed by b exactly
# when there are as many (a, b) pairs as a's.
_HOLDS: Dict[str, Callable[..., bool]] = {
    "existence": lambda s, pairs, a, b: a in s,
    "absence": lambda s, pairs, a, b: a not in s,
    "exactly_one": lambda s, pairs, a, b: s.count(a) == 1,
    "init": lambda s, pairs, a, b: s[0] == a,
    "end": lambda s, pairs, a, b: s[-1] == a,
    "responded_existence": lambda s, pairs, a, b: a not in s or b in s,
    "response": _response,
    "precedence": _precedence,
    "succession": lambda s, pairs, a, b: (
        _response(s, pairs, a, b) and _precedence(s, pairs, a, b)
    ),
    "chain_response": lambda s, pairs, a, b: pairs.count((a, b)) == s.count(a),
    "chain_precedence": lambda s, pairs, a, b: pairs.count((a, b)) == s.count(b),
    "not_succession": lambda s, pairs, a, b: a not in s or b not in s[s.index(a) + 1 :],
}

TEMPLATES = tuple(_HOLDS)

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
        if not isinstance(self.a, str) or not isinstance(self.b, (str, type(None))):
            raise ValueError("%s takes str activities, got %r" % (self.template, (self.a, self.b)))

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
        labels = set()
        for c in self.constraints:
            label = c.label()
            if label in labels:
                raise ValueError("constraint label %r occurs twice" % label)
            labels.add(label)


def case_mask(model: DeclareModel, case: EventLog) -> int:
    """Bit ``i`` is set when ``model.constraints[i]`` holds on ``case``."""
    if not case:
        raise EmptyCase("cannot check an empty case")
    if not case.is_case():
        raise ValueError("log spans multiple iids; check one case at a time")
    s = case.activities()
    pairs = list(zip(s, s[1:]))
    return sum(
        1 << i
        for i, c in enumerate(model.constraints)
        if _HOLDS[c.template](s, pairs, c.a, c.b)
    )


def _frac_str(f: Fraction) -> str:
    return "%d/%d" % (f.numerator, f.denominator)


def _nested(value: object, depth: int) -> str:
    """``value`` as ``json.dumps(..., sort_keys=True, indent=2)`` renders it
    ``depth`` levels deep (JSON text holds no raw newline but its own)."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


def _object(items: Iterable[Tuple[str, str]], depth: int) -> str:
    """A non-empty JSON object ``depth`` levels deep from ``(key, rendered
    value)`` items already in key order, laid out as ``_nested`` lays it."""
    pad = "  " * depth
    body = ",\n".join("%s  %s: %s" % (pad, json.dumps(k), v) for k, v in items)
    return "{\n%s\n%s}" % (body, pad)


class ConformanceState:
    """One bitmask per case; order of arrival never matters."""

    def __init__(self, model: DeclareModel):
        self.model = model
        self._masks: Dict[str, int] = {}

    def add_case(self, case: EventLog) -> None:
        mask = case_mask(self.model, case)
        self._masks[case.events[0].iid] = mask

    def report_json(self) -> bytes:
        """Deterministic JSON rendering with exact rationals alongside floats.

        The bytes are ``json.dumps(doc, sort_keys=True, indent=2) + "\n"``;
        each distinct mask's ``per_trace`` entry is built and rendered once.
        """
        if not self._masks:
            raise EmptyCase("no cases checked")
        labels = [c.label() for c in self.model.constraints]
        n = len(labels)
        violations = dict.fromkeys(labels, 0)
        entries = {}
        held_total = 0
        for mask, count in Counter(self._masks.values()).items():
            violated = [label for i, label in enumerate(labels) if not mask >> i & 1]
            for label in violated:
                violations[label] += count
            held = n - len(violated)
            held_total += held * count
            fitness = Fraction(held, n)
            entry = {
                "fitness": float(fitness),
                "fitness_exact": _frac_str(fitness),
                "violated": violated,
            }
            entries[mask] = _nested(entry, 2)
        m = len(self._masks)
        aggregate = Fraction(held_total, n * m)
        doc = {
            "aggregate": float(aggregate),
            "aggregate_exact": _frac_str(aggregate),
            "constraints": labels,
            "n_cases": m,
            "violations": violations,
        }
        fields = {k: _nested(v, 1) for k, v in doc.items()}
        fields["per_trace"] = _object(
            ((iid, entries[mask]) for iid, mask in sorted(self._masks.items())), 1
        )
        return (_object(sorted(fields.items()), 0) + "\n").encode("utf-8")
