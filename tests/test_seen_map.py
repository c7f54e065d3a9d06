"""The per-node seen map against a plain set, and its memory bound.

Every participant remembers which events it has seen (lines 12–20 of
Figure 4: a repeat is dropped).  It keeps one byte per event in
``Participant._seen``, indexed by the number its :class:`DeliveryLog` gave
the event id on first sight.  A reference set per node is the oracle here,
across the three classes that ask the question (push gossip, data-aware
multicast, brokers), through crashes, for a live host node added after
events were numbered, and for a whole received gossip payload.
"""

from __future__ import annotations

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.brokers import BrokerSystem
from repro.damulticast import DataAwareMulticastSystem
from repro.damulticast.dam import DamNode
from repro.gossip import GossipSystem, PushGossipNode
from repro.gossip.push import GOSSIP_MESSAGE_KIND, GossipMessage
from repro.membership import full_membership_provider
from repro.pubsub import DeliveryLog, Event
from repro.runtime import MemoryTransport, NodeHost
from repro.sim import Message, Network, Simulator

EVENT_IDS = [f"e{index}" for index in range(8)]


def make_event(event_id: str) -> Event:
    return Event(event_id=event_id, publisher="p", attributes={"topic": "t"})


class SetSeenNode(PushGossipNode):
    """A gossip node that keeps its seen ids in a set, as nodes once did."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.seen_event_ids = set()

    def has_seen(self, event_id):
        return event_id in self.seen_event_ids

    def mark_seen(self, event_id):
        if event_id in self.seen_event_ids:
            return False
        self.seen_event_ids.add(event_id)
        return True


def seen_bytes_per_sighting(node_class, nodes: int = 32, events: int = 200) -> float:
    """Traced bytes of seen state per (node, event) once every node saw every event."""
    simulator = Simulator(seed=1)
    network = Network(simulator)
    system = GossipSystem(
        simulator,
        network,
        [f"node-{index:02d}" for index in range(nodes)],
        membership_provider=full_membership_provider(network),
        node_class=node_class,
    )
    event_ids = [f"node-00:{index}" for index in range(events)]
    participants = list(system.nodes.values())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for event_id in event_ids:
            for node in participants:
                assert node.mark_seen(event_id)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(node.has_seen(event_id) for node in participants for event_id in event_ids)
    return held / (nodes * events)


#: A byte per event and node, plus the log's one shared number per event,
#: cost about 2 B per pair on CPython 3.11 at this size; a set per node costs
#: about 40 B.
MAX_SEEN_BYTES_PER_SIGHTING = 4


class TestMemory:
    def test_a_sighting_costs_about_a_byte(self):
        assert seen_bytes_per_sighting(PushGossipNode) <= MAX_SEEN_BYTES_PER_SIGHTING

    def test_the_bound_rejects_a_set_per_node(self):
        assert seen_bytes_per_sighting(SetSeenNode) > MAX_SEEN_BYTES_PER_SIGHTING


def sight(node, event: Event) -> None:
    """One sighting through the node's own protocol path."""
    if isinstance(node, PushGossipNode):
        # The inline check in _absorb_event must answer as has_seen does.
        expected = not node.has_seen(event.event_id)
        assert node._absorb_event(event) is expected
    elif isinstance(node, DamNode):
        node._spread("t", event, first_touch=False)
    else:
        node._handle_publish(event, from_broker=True)


def absorb_payload(node: PushGossipNode, reference: set, first: int) -> None:
    """``absorb_events`` on one payload: a seen id, a new id, another new id twice.

    Only a first sight may reach ``_absorb_event``, once per id, in payload
    order, however often the payload carries the id.
    """
    rotated = EVENT_IDS[first:] + EVENT_IDS[:first]
    new = [event_id for event_id in rotated if event_id not in reference][:2]
    carried = sorted(reference)[:1] + new[:1] + new[1:] * 2
    absorbed = []
    absorb_event = node._absorb_event

    def counted(event, *args):
        absorbed.append(event.event_id)
        return absorb_event(event, *args)

    node._absorb_event = counted
    try:
        payload = GossipMessage(tuple(make_event(event_id) for event_id in carried))
        count = node.absorb_events(Message("g", node.node_id, GOSSIP_MESSAGE_KIND, payload))
    finally:
        del node._absorb_event
    assert absorbed == new
    assert count == len(new)
    reference.update(carried)


#: ("sight", node, event) runs the node's protocol path, ("mark", node, event)
#: calls mark_seen, ("payload", node, event) has a gossip node absorb a payload
#: (the event's position picks its ids), ("crash", node, _) crashes and
#: recovers the node, and ("join", _, _) adds a live host node after events
#: were numbered.
operations = st.lists(
    st.tuples(
        st.sampled_from(["sight", "sight", "mark", "payload", "crash", "join"]),
        st.integers(min_value=0, max_value=63),
        st.sampled_from(EVENT_IDS),
    ),
    max_size=50,
)


class TestMatchesASetPerNode:
    @settings(deadline=None, max_examples=100)
    @given(operations)
    def test_has_seen_answers_as_a_set_through_every_path(self, sequence):
        log = DeliveryLog()
        simulator = Simulator(seed=1)
        network = Network(simulator)
        gossip = GossipSystem(
            simulator, network, ["g0", "g1"],
            membership_provider=full_membership_provider(network), delivery_log=log,
        )
        dam = DataAwareMulticastSystem(simulator, network, ["d0", "d1"], delivery_log=log)
        brokers = BrokerSystem(simulator, network, ["c0"], broker_count=2, delivery_log=log)
        host = NodeHost(MemoryTransport(), delivery_log=log)
        nodes = [
            *gossip.nodes.values(), *dam.nodes.values(), *brokers.brokers.values()
        ]
        reference = {node.node_id: set() for node in nodes}
        events = {event_id: make_event(event_id) for event_id in EVENT_IDS}
        for kind, index, event_id in sequence:
            node = nodes[index % len(nodes)]
            if kind == "join":
                node_id = f"late-{len(host.nodes)}"
                host.add_nodes([node_id])
                nodes.append(host.node(node_id))
                reference[node_id] = set()
            elif kind == "crash":
                node.crash()
                node.recover()
            elif kind == "mark":
                assert node.mark_seen(event_id) is (event_id not in reference[node.node_id])
                reference[node.node_id].add(event_id)
            elif kind == "payload":
                receiver = nodes[index % 2]  # the two gossip nodes come first
                absorb_payload(receiver, reference[receiver.node_id], EVENT_IDS.index(event_id))
            else:
                sight(node, events[event_id])
                reference[node.node_id].add(event_id)
            for each in nodes:
                assert {e for e in EVENT_IDS if each.has_seen(e)} == reference[each.node_id]
        assert sorted(log.event_numbers.values()) == list(range(len(log.event_numbers)))
