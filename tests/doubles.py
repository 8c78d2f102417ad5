"""Test doubles for the protocol and the transport.

``CollectorSink`` stands in for a mining sink; ``LossyNetwork`` breaks the
link guarantees of ``InProcessNetwork`` on purpose.
"""

import random
from typing import List

from enclavemine.model import EventLog
from enclavemine.transport import InProcessNetwork


class CollectorSink:
    """Collects yielded cases and/or the final merged log."""

    def __init__(self) -> None:
        self.cases: List[EventLog] = []
        self.logs: List[EventLog] = []

    def on_case(self, case: EventLog) -> None:
        self.cases.append(case)

    def on_log(self, log: EventLog) -> None:
        self.logs.append(log)


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
