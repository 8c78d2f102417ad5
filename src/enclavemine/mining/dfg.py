"""Directly-follows statistics accumulated one case at a time.

The state is a plain bag of counters, so feeding cases incrementally or all
at once lands in the same state: observation order never matters. That is
what makes the streaming and batch mining paths provably agree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Counter as CounterT, Tuple

from ..model import EventLog

__all__ = ["EmptyCase", "DfgState", "hm_observe", "dependency"]


class EmptyCase(ValueError):
    pass


@dataclass
class DfgState:
    """Counters over observed cases.

    ``loop2_counts[(a, b)]`` counts a-b-a patterns; needed to recover
    length-two loops, which plain directly-follows counts cannot distinguish
    from noise.
    """

    activity_counts: CounterT[str] = field(default_factory=Counter, init=False)
    directly_follows: CounterT[Tuple[str, str]] = field(default_factory=Counter, init=False)
    loop2_counts: CounterT[Tuple[str, str]] = field(default_factory=Counter, init=False)
    start_counts: CounterT[str] = field(default_factory=Counter, init=False)
    end_counts: CounterT[str] = field(default_factory=Counter, init=False)
    cases_seen: int = field(default=0, init=False)


def hm_observe(state: DfgState, case: EventLog) -> DfgState:
    """Fold one case into the state (mutates and returns ``state``).

    The case must be nonempty and single-instance; its activity sequence is
    read off in canonical event order.
    """
    if not case:
        raise EmptyCase("cannot observe an empty case")
    if not case.is_case():
        raise ValueError("log spans multiple iids; observe one case at a time")
    seq = case.activities()
    state.start_counts[seq[0]] += 1
    state.end_counts[seq[-1]] += 1
    # Counter.update counts in C and adds new keys in first-seen order, as
    # the ``+= 1`` loops it stands for did.
    state.activity_counts.update(seq)
    state.directly_follows.update(zip(seq, seq[1:]))
    state.loop2_counts.update(
        (a, b) for a, b, c in zip(seq, seq[1:], seq[2:]) if a == c and a != b
    )
    state.cases_seen += 1
    return state


def dependency(state: DfgState, a: str, b: str) -> float:
    """Dependency measure between activities.

    For a != b: (|a>b| - |b>a|) / (|a>b| + |b>a| + 1).
    For a == b (length-one loop): |a>a| / (|a>a| + 1).
    """
    if a == b:
        aa = state.directly_follows[(a, a)]
        return aa / (aa + 1.0)
    ab = state.directly_follows[(a, b)]
    ba = state.directly_follows[(b, a)]
    return (ab - ba) / (ab + ba + 1.0)
