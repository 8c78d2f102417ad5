"""Deterministic in-process message transport between protocol nodes.

The network gives the protocol layer reliable FIFO delivery per directed
link, each message delivered exactly once, and handlers run one at a time
(run-to-completion). Nodes are objects with a ``node_id``, a
``bootstrap()`` and a ``handle(sender, payload)`` that return sends as
``(receiver, payload_bytes)`` lists, and an ``on_quiet()`` that ``run`` and
``run_replay`` call on every node, in sorted id order, once no message is
pending: the moment a deployment's timeout would fire. ``run`` gives up
with :class:`TransportError` after :data:`MAX_DELIVERIES` deliveries, so a
session that never goes quiet ends instead of spinning.

A seeded RNG picks which nonempty link delivers next, so one seed fixes the
whole interleaving, and the recorded delivery order can be replayed
verbatim.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "TransportError",
    "DeliveryRecord",
    "InProcessNetwork",
    "MAX_DELIVERIES",
]

MAX_DELIVERIES = 1_000_000


class TransportError(Exception):
    pass


@dataclass(frozen=True)
class DeliveryRecord:
    step: int
    sender: str
    receiver: str
    size: int


class InProcessNetwork:
    """Deterministic single-threaded scheduler over per-link FIFO queues."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._nodes: Dict[str, object] = {}
        self._queues: Dict[Tuple[str, str], Deque[bytes]] = {}
        self.step = 0
        self.transcript: List[DeliveryRecord] = []
        self.on_delivered: Optional[Callable[[DeliveryRecord], None]] = None

    def register(self, node) -> None:
        if node.node_id in self._nodes:
            raise TransportError("node %s already registered" % node.node_id)
        self._nodes[node.node_id] = node

    def send(self, sender: str, receiver: str, payload: bytes) -> None:
        if receiver not in self._nodes:
            raise TransportError("unknown receiver %s" % receiver)
        self._queues.setdefault((sender, receiver), deque()).append(payload)

    def _enqueue_outputs(self, sender: str, outputs: Sequence[Tuple[str, bytes]]) -> None:
        for receiver, payload in outputs:
            self.send(sender, receiver, payload)

    def bootstrap(self) -> None:
        for node_id in sorted(self._nodes):
            node = self._nodes[node_id]
            boot = getattr(node, "bootstrap", None)
            if boot is not None:
                self._enqueue_outputs(node_id, boot() or [])

    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def deliver_next(self, forced_link: Optional[Tuple[str, str]] = None) -> DeliveryRecord:
        nonempty = sorted(k for k, q in self._queues.items() if q)
        if not nonempty:
            raise TransportError("nothing to deliver")
        link = forced_link if forced_link is not None else self._rng.choice(nonempty)
        if link not in self._queues or not self._queues[link]:
            raise TransportError("forced link %r has no pending message" % (link,))
        payload = self._queues[link].popleft()
        sender, receiver = link
        record = DeliveryRecord(self.step, sender, receiver, len(payload))
        self.step += 1
        self.transcript.append(record)
        outputs = self._nodes[receiver].handle(sender, payload)
        self._enqueue_outputs(receiver, outputs or [])
        if self.on_delivered is not None:
            self.on_delivered(record)
        return record

    def run(self) -> int:
        """Deliver until quiescent; returns the number of deliveries made."""
        made, limit = 0, MAX_DELIVERIES
        while self.pending():
            if made >= limit:
                raise TransportError("exceeded %d deliveries" % limit)
            self.deliver_next()
            made += 1
        self._quiet()
        return made

    def run_replay(self, order: Sequence[Tuple[str, str]]) -> None:
        """Deliver following a recorded (sender, receiver) order exactly."""
        for link in order:
            self.deliver_next(forced_link=tuple(link))
        if self.pending():
            raise TransportError("replay order exhausted with %d pending" % self.pending())
        self._quiet()

    def _quiet(self) -> None:
        for node_id in sorted(self._nodes):
            self._nodes[node_id].on_quiet()
