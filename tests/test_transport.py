"""The deterministic in-process network.

The node used here is a deliberately dumb echo/ping machine, so the tests
observe pure transport behavior: ordering, determinism, replay and fault
injection.
"""

import pytest

from doubles import LossyNetwork
from enclavemine.transport import DeliveryRecord, InProcessNetwork, TransportError


class Chatter:
    """Sends `fanout` pings on bootstrap; answers each ping with up to one pong."""

    def __init__(self, node_id, peers=(), fanout=0):
        self.node_id = node_id
        self.peers = list(peers)
        self.fanout = fanout
        self.inbox = []

    def bootstrap(self):
        return [(p, b"ping:%d" % i) for i in range(self.fanout) for p in self.peers]

    def handle(self, sender, payload):
        self.inbox.append((sender, payload))
        if payload.startswith(b"ping:"):
            return [(sender, b"pong:" + payload[5:])]
        return []

    def on_quiet(self):
        pass


class Listener(Chatter):
    """A Chatter that notes in ``heard`` how many messages it had received
    each time the network told it that no message was pending."""

    def __init__(self, node_id, heard, **kwargs):
        super().__init__(node_id, **kwargs)
        self.heard = heard

    def on_quiet(self):
        self.heard.append((self.node_id, len(self.inbox)))


def _listeners(net, heard):
    # Registered out of id order; the network still calls them in order.
    net.register(Listener("b", heard))
    net.register(Listener("a", heard, peers=["b", "c"], fanout=2))
    net.register(Listener("c", heard))
    net.bootstrap()


def test_fifo_per_link():
    net = InProcessNetwork(seed=1)
    a = Chatter("a", peers=["b"], fanout=5)
    b = Chatter("b")
    net.register(a)
    net.register(b)
    net.bootstrap()
    net.run()
    assert [p for _, p in b.inbox] == [b"ping:%d" % i for i in range(5)]
    assert [p for _, p in a.inbox] == [b"pong:%d" % i for i in range(5)]


def test_duplicate_registration_rejected():
    net = InProcessNetwork()
    net.register(Chatter("a"))
    with pytest.raises(TransportError):
        net.register(Chatter("a"))


def test_unknown_receiver_rejected():
    net = InProcessNetwork()
    net.register(Chatter("a"))
    with pytest.raises(TransportError):
        net.send("a", "ghost", b"x")


def test_deliver_next_on_empty_network():
    net = InProcessNetwork()
    net.register(Chatter("a"))
    with pytest.raises(TransportError):
        net.deliver_next()


def _transcript_for(seed):
    net = InProcessNetwork(seed=seed)
    hub = Chatter("hub", peers=["n1", "n2", "n3"], fanout=3)
    nodes = [hub] + [Chatter("n%d" % i) for i in (1, 2, 3)]
    for n in nodes:
        net.register(n)
    net.bootstrap()
    net.run()
    return net.transcript


def test_same_seed_same_interleaving():
    assert _transcript_for(42) == _transcript_for(42)


def test_different_seed_different_interleaving():
    # Nine pings to three peers leave plenty of scheduling freedom; at least
    # one of these seeds must diverge from seed 42.
    base = _transcript_for(42)
    assert any(_transcript_for(s) != base for s in (1, 2, 3))


def test_replay_reproduces_transcript():
    original = _transcript_for(7)
    net = InProcessNetwork(seed=999)
    hub = Chatter("hub", peers=["n1", "n2", "n3"], fanout=3)
    for n in [hub] + [Chatter("n%d" % i) for i in (1, 2, 3)]:
        net.register(n)
    net.bootstrap()
    net.run_replay([(r.sender, r.receiver) for r in original])
    assert net.transcript == original


def test_replay_rejects_wrong_link():
    net = InProcessNetwork(seed=0)
    a = Chatter("a", peers=["b"], fanout=1)
    net.register(a)
    net.register(Chatter("b"))
    net.bootstrap()
    with pytest.raises(TransportError):
        net.run_replay([("b", "a")])


def test_replay_must_drain():
    net = InProcessNetwork(seed=0)
    a = Chatter("a", peers=["b"], fanout=1)
    net.register(a)
    net.register(Chatter("b"))
    net.bootstrap()
    # Delivering the ping spawns a pong, so a one-step order leaves traffic.
    with pytest.raises(TransportError, match="pending"):
        net.run_replay([("a", "b")])


def test_transcript_records_sizes_and_steps():
    net = InProcessNetwork(seed=3)
    a = Chatter("a", peers=["b"], fanout=2)
    net.register(a)
    net.register(Chatter("b"))
    net.bootstrap()
    net.run()
    assert net.transcript[0] == DeliveryRecord(0, "a", "b", len(b"ping:0"))
    assert [r.step for r in net.transcript] == list(range(len(net.transcript)))


def test_on_delivered_hook_sees_every_record():
    net = InProcessNetwork(seed=5)
    seen = []
    net.on_delivered = seen.append
    a = Chatter("a", peers=["b"], fanout=4)
    net.register(a)
    net.register(Chatter("b"))
    net.bootstrap()
    net.run()
    assert seen == net.transcript


def test_run_respects_step_budget():
    net = InProcessNetwork(seed=0)
    a = Chatter("a", peers=["b"], fanout=10)
    net.register(a)
    net.register(Chatter("b"))
    net.bootstrap()
    with pytest.raises(TransportError, match="exceeded"):
        net.run(max_steps=3)


def test_run_tells_every_node_once_when_no_message_is_pending():
    heard = []
    net = InProcessNetwork(seed=4)
    _listeners(net, heard)
    net.run()
    assert heard == [("a", 4), ("b", 2), ("c", 2)]


def test_replay_tells_every_node_once_it_drains():
    heard = []
    net = InProcessNetwork(seed=4)
    _listeners(net, heard)
    net.run()
    order = [(r.sender, r.receiver) for r in net.transcript]
    replayed = []
    net = InProcessNetwork(seed=0)
    _listeners(net, replayed)
    net.run_replay(order)
    assert replayed == heard == [("a", 4), ("b", 2), ("c", 2)]


def test_no_node_is_told_while_messages_are_pending():
    heard = []
    net = InProcessNetwork(seed=4)
    _listeners(net, heard)
    with pytest.raises(TransportError, match="pending"):
        net.run_replay([("a", "b")])
    with pytest.raises(TransportError, match="exceeded"):
        net.run(max_steps=1)
    assert heard == []


def test_lossy_duplicates():
    net = LossyNetwork(seed=8, duplicate_prob=1.0)
    a = Chatter("a", peers=["b"], fanout=1)
    b = Chatter("b")
    net.register(a)
    net.register(b)
    net.bootstrap()
    net.run()
    # Every send doubled: 2 pings arrive, each answered by a doubled pong.
    assert [p for _, p in b.inbox] == [b"ping:0", b"ping:0"]
    assert len(a.inbox) == 4


def test_lossy_drops_everything():
    net = LossyNetwork(seed=8, drop_prob=1.0)
    a = Chatter("a", peers=["b"], fanout=3)
    b = Chatter("b")
    net.register(a)
    net.register(b)
    net.bootstrap()
    assert net.pending() == 0
    assert b.inbox == []

