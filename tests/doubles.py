"""Test doubles and helpers shared by the test modules.

``CollectorSink`` stands in for a mining sink; ``LossyNetwork`` breaks the
link guarantees of ``InProcessNetwork`` on purpose; ``make_random_log``
draws multi-provisioner logs and ``brute_union`` is an independent merge
oracle.
"""

import random
from typing import List

from enclavemine.model import Event, EventLog, log_from_events
from enclavemine.transport import InProcessNetwork


class CollectorSink:
    """Collects the cases a session hands over, in arrival order; ``on_case``
    is the only sink method the protocol calls, in either mode."""

    def __init__(self) -> None:
        self.cases: List[EventLog] = []

    def on_case(self, case: EventLog) -> None:
        self.cases.append(case)


class LossyNetwork(InProcessNetwork):
    """Violates the link guarantees on purpose.

    With probability ``duplicate_prob`` an enqueued message is queued twice;
    with ``drop_prob`` it is silently discarded. Used to prove the protocol
    detects what the authenticated link normally rules out.
    """

    def __init__(self, seed: int = 0, duplicate_prob: float = 0.0, drop_prob: float = 0.0):
        super().__init__(seed)
        self.duplicate_prob = duplicate_prob
        self.drop_prob = drop_prob
        self._fault_rng = random.Random(seed + 0x5EED)

    def send(self, sender: str, receiver: str, payload: bytes) -> None:
        if self._fault_rng.random() < self.drop_prob:
            return
        super().send(sender, receiver, payload)
        if self._fault_rng.random() < self.duplicate_prob:
            super().send(sender, receiver, payload)


def brute_union(*logs) -> EventLog:
    """Independent merge oracle: dump every event and sort."""
    events = [ev for log in logs for ev in log]
    ids = [ev.event_id for ev in events]
    assert len(ids) == len(set(ids)), "oracle misuse: overlapping logs"
    return EventLog(
        tuple(sorted(events, key=lambda e: (e.timestamp, e.provisioner_id, e.event_id)))
    )


def make_random_log(
    rng: random.Random,
    n_cases: int,
    provisioners,
    *,
    min_events: int = 2,
    max_events: int = 8,
    id_prefix: str = "e",
    multibyte: bool = False,
) -> EventLog:
    """Random multi-provisioner log; tight timestamp range forces tie-breaks.

    With ``multibyte``, every text field mixes in characters of two, three
    and four UTF-8 bytes: event ids, iids, activities and provisioner ids
    get a marker, and each event gets up to two extras pairs drawn from
    multibyte text, so character counts and encoded lengths differ.
    """
    activities = ["A", "B", "C", "D", "E", "F", "G", "H"]
    if multibyte:
        activities = [a + "éケ" for a in activities[:4]] + ["🙂", "Ω", "I", "J"]
        provisioners = [p + "-ø" for p in provisioners]
        id_prefix += "é"
    events = []
    counter = 0
    for c in range(n_cases):
        iid = ("cケ%04d" if multibyte else "c%04d") % c
        t = rng.randint(0, 50)
        for _ in range(rng.randint(min_events, max_events)):
            t += rng.randint(0, 3)
            extras = ()
            if multibyte:
                texts = ["", "k", "å", "ключ", "表🙂"]
                pairs = {rng.choice(texts): rng.choice(texts) for _ in range(rng.randint(0, 2))}
                extras = tuple(sorted(pairs.items()))
            events.append(
                Event(
                    event_id="%s%06d" % (id_prefix, counter),
                    iid=iid,
                    activity=rng.choice(activities),
                    timestamp=t,
                    provisioner_id=rng.choice(provisioners),
                    extras=extras,
                )
            )
            counter += 1
    return log_from_events(events)
