"""``DeliveryLog`` against the four-structure log it replaced, and its memory bound.

The log keeps each (node, event) delivery once: an ``event -> node -> record``
index that is also the at-most-once check of ``Participant.deliver``, the
arrival-order stream, and a per-node count.  :class:`ReferenceDeliveryLog` is
the previous implementation, kept as the oracle: a ``(node, event)`` seen-set,
per-node and per-event record lists and the ordered stream, with the
participant's own delivered-id set in :class:`ReferenceParticipant`.
"""

from __future__ import annotations

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WorkLedger
from repro.pubsub import DeliveryLog, DeliveryRecord, Event
from repro.pubsub.interfaces import Participant
from repro.sim import Network, Simulator

NODES = [f"n{index}" for index in range(5)]
EVENTS = [f"e{index}" for index in range(6)]


def make_event(event_id: str, published_at: float = 0.0) -> Event:
    return Event(event_id=event_id, publisher="p", attributes={}, published_at=published_at)


class ReferenceDeliveryLog:
    """The delivery log as it stored each delivery four times."""

    def __init__(self) -> None:
        self._by_node = {}
        self._by_event = {}
        self._ordered = []
        self._seen = set()

    def record(self, node_id, event, delivered_at):
        key = (node_id, event.event_id)
        if key in self._seen:
            return None
        self._seen.add(key)
        record = DeliveryRecord(
            node_id=node_id,
            event_id=event.event_id,
            delivered_at=delivered_at,
            published_at=event.published_at,
        )
        self._by_node.setdefault(node_id, []).append(record)
        self._by_event.setdefault(event.event_id, []).append(record)
        self._ordered.append(record)
        return record

    def ordered_records(self):
        return self._ordered

    def delivered(self, node_id, event_id):
        return (node_id, event_id) in self._seen

    def deliveries_by_node(self, node_id):
        return list(self._by_node.get(node_id, ()))

    def deliveries_of_event(self, event_id):
        return list(self._by_event.get(event_id, ()))

    def delivery_count(self, node_id):
        return len(self._by_node.get(node_id, ()))

    def nodes(self):
        return sorted(self._by_node)

    def event_ids(self):
        return sorted(self._by_event)

    def total_deliveries(self):
        return len(self._seen)

    def latencies(self):
        return [
            record.delivered_at - record.published_at
            for records in self._by_event.values()
            for record in records
        ]


class ReferenceParticipant(Participant):
    """``Participant.deliver`` as it was: its own delivered-id set first."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.delivered_event_ids = set()

    def deliver(self, event):
        if event.event_id in self.delivered_event_ids:
            return False
        self.delivered_event_ids.add(event.event_id)
        self.ledger.record_delivery(self.node_id)
        self.delivery_log.record(self.node_id, event, delivered_at=self.simulator.now)
        for callback in self._callbacks:
            callback(self.node_id, event)
        return True


def public_queries(log):
    """Every public query of the log, over every node and event of the grid."""
    return {
        "ordered_records": list(log.ordered_records()),
        "delivered": [log.delivered(node, event) for node in NODES for event in EVENTS],
        "deliveries_by_node": [log.deliveries_by_node(node) for node in NODES],
        "deliveries_of_event": [log.deliveries_of_event(event) for event in EVENTS],
        "delivery_count": [log.delivery_count(node) for node in NODES],
        "nodes": log.nodes(),
        "event_ids": log.event_ids(),
        "total_deliveries": log.total_deliveries(),
        "latencies": log.latencies(),
    }


#: (node, event, time step) triples drawn from a small grid, so repeats of
#: one (node, event) pair are common.
deliveries = st.lists(
    st.tuples(
        st.sampled_from(NODES),
        st.sampled_from(EVENTS),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=60,
)


class TestMatchesTheFourStructureLog:
    @settings(deadline=None, max_examples=150)
    @given(deliveries)
    def test_every_query_returns_the_same_values_in_the_same_order(self, sequence):
        log, reference = DeliveryLog(), ReferenceDeliveryLog()
        published = {event: float(index) for index, event in enumerate(EVENTS)}
        for step, (node, event_id, delay) in enumerate(sequence):
            event = make_event(event_id, published[event_id])
            delivered_at = published[event_id] + step + delay
            assert log.record(node, event, delivered_at) == reference.record(
                node, event, delivered_at
            )
        assert public_queries(log) == public_queries(reference)

    @settings(deadline=None, max_examples=100)
    @given(deliveries)
    def test_participant_deliver_keeps_returns_callbacks_and_ledger(self, sequence):
        sides = []
        for participant_class, log_class in (
            (Participant, DeliveryLog),
            (ReferenceParticipant, ReferenceDeliveryLog),
        ):
            simulator = Simulator(seed=1)
            network = Network(simulator)
            ledger, log, calls = WorkLedger(), log_class(), []
            participants = {
                node: participant_class(node, simulator, network, ledger, log) for node in NODES
            }
            for participant in participants.values():
                participant.add_delivery_callback(
                    lambda node_id, event: calls.append((node_id, event.event_id))
                )
            returns = []
            for step, (node, event_id, _) in enumerate(sequence):
                simulator.run(until=float(step))
                returns.append(participants[node].deliver(make_event(event_id)))
            accounts = {node: ledger.account(node) for node in NODES}
            sides.append((returns, calls, accounts, public_queries(log)))
        assert sides[0] == sides[1]


def log_bytes_per_delivery(log_class, nodes: int = 128, events: int = 200) -> float:
    """Traced bytes a log holds per recorded (node, event) pair."""
    event_objects = [make_event(f"p-{index}", float(index)) for index in range(events)]
    node_ids = [f"node-{index:03d}" for index in range(nodes)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = log_class()
        for event in event_objects:
            for node in node_ids:
                log.record(node, event, delivered_at=event.published_at + 1.0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert log.total_deliveries() == nodes * events
    return held / (nodes * events)


#: One record, its delivery time, one slot in the per-event index and one in
#: the ordered stream cost about 125 B per pair on CPython 3.11; the
#: four-structure log cost about 290 B.  A second index of (node, event) keys
#: next to the first one crosses this bound.
MAX_BYTES_PER_DELIVERY = 160


class TestMemory:
    def test_each_delivery_is_stored_once(self):
        assert log_bytes_per_delivery(DeliveryLog) <= MAX_BYTES_PER_DELIVERY

    def test_the_bound_rejects_the_four_structure_log(self):
        assert log_bytes_per_delivery(ReferenceDeliveryLog) > MAX_BYTES_PER_DELIVERY
