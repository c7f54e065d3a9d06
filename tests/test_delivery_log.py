"""``DeliveryLog`` against the two logs it replaced, and its memory bound.

The log keeps each (node, event) delivery once, as one row of numbers in
``array`` columns: a per-node bitmap is the at-most-once check of
``Participant.deliver``, a per-event row chain answers per-event reads, and
``DeliveryRecord`` rows are built only when read.  Two previous
implementations are kept as oracles:

* :class:`RowObjectDeliveryLog`, one ``DeliveryRecord`` per delivery in an
  ``event -> node -> record`` index plus the arrival-order list;
* :class:`ReferenceDeliveryLog`, the four-structure log before it: a
  ``(node, event)`` seen-set, per-node and per-event record lists and the
  ordered stream, with the participant's own delivered-id set in
  :class:`ReferenceParticipant`.
"""

from __future__ import annotations

import tracemalloc

import pytest
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


class RecordReaders:
    """The column readers of ``DeliveryLog``, derived from a log's records."""

    def latencies_since(self, start):
        return [(record.node_id, record.latency) for record in self.ordered_records()[start:]]

    def event_latencies(self, event_id):
        return [(record.node_id, record.latency) for record in self.deliveries_of_event(event_id)]


class RowObjectDeliveryLog(RecordReaders):
    """The delivery log as it kept one record object per delivery."""

    def __init__(self) -> None:
        self._by_event = {}
        self._ordered = []
        self._counts = {}
        self.event_numbers = {}

    def record(self, node_id, event, delivered_at):
        by_node = self._by_event.setdefault(event.event_id, {})
        if node_id in by_node:
            return None
        record = by_node[node_id] = DeliveryRecord(
            node_id, event.event_id, delivered_at, event.published_at
        )
        self._ordered.append(record)
        self._counts[node_id] = self._counts.get(node_id, 0) + 1
        return record

    def ordered_records(self):
        return self._ordered

    def deliveries_of_event(self, event_id):
        return list(self._by_event.get(event_id, {}).values())

    def delivery_count(self, node_id):
        return self._counts.get(node_id, 0)

    def total_deliveries(self):
        return len(self._ordered)


class ReferenceDeliveryLog(RecordReaders):
    """The delivery log as it stored each delivery four times."""

    def __init__(self) -> None:
        self._by_node = {}
        self._by_event = {}
        self._ordered = []
        self._seen = set()
        self.event_numbers = {}

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

    def deliveries_of_event(self, event_id):
        return list(self._by_event.get(event_id, ()))

    def delivery_count(self, node_id):
        return len(self._by_node.get(node_id, ()))

    def total_deliveries(self):
        return len(self._seen)


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
    total = log.total_deliveries()
    return {
        "ordered_records": list(log.ordered_records()),
        "event_latencies": [list(log.event_latencies(event)) for event in EVENTS],
        "latencies_since": [list(log.latencies_since(start)) for start in range(total + 1)],
        "delivery_count": [log.delivery_count(node) for node in NODES],
        "total_deliveries": total,
    }


#: (node, event, time step, republished) tuples drawn from a small grid, so
#: repeats of one (node, event) pair are common; a republished event reaches
#: the log under its id with a second publication time.
deliveries = st.lists(
    st.tuples(
        st.sampled_from(NODES),
        st.sampled_from(EVENTS),
        st.integers(min_value=0, max_value=3),
        st.booleans(),
    ),
    max_size=60,
)


class TestMatchesTheFourStructureLog:
    @pytest.mark.parametrize("reference_class", [RowObjectDeliveryLog, ReferenceDeliveryLog])
    @settings(deadline=None, max_examples=150)
    @given(sequence=deliveries)
    def test_every_query_returns_the_same_values_in_the_same_order(
        self, reference_class, sequence
    ):
        log, reference = DeliveryLog(), reference_class()
        published = {event: float(index) for index, event in enumerate(EVENTS)}
        for step, (node, event_id, delay, republished) in enumerate(sequence):
            event = make_event(event_id, published[event_id] + 0.5 * republished)
            delivered_at = published[event_id] + step + delay
            recorded = log.record(node, event, delivered_at)
            assert type(recorded) is bool
            assert recorded == (reference.record(node, event, delivered_at) is not None)
        assert public_queries(log) == public_queries(reference)

    @settings(deadline=None, max_examples=100)
    @given(deliveries)
    def test_the_row_view_reads_like_the_record_list(self, sequence):
        log, reference = DeliveryLog(), RowObjectDeliveryLog()
        rows = log.ordered_records()
        for step, (node, event_id, delay, _) in enumerate(sequence):
            event = make_event(event_id)
            log.record(node, event, float(step + delay))
            reference.record(node, event, float(step + delay))
        expected = reference.ordered_records()
        assert len(rows) == len(expected) == log.total_deliveries()
        assert list(rows) == expected
        assert [rows[index] for index in range(-len(expected), len(expected))] == (
            expected + expected
        )
        assert rows[1:-1] == expected[1:-1]
        for index in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                rows[index]

    def test_the_row_view_refuses_assignment_and_follows_the_log(self):
        log = DeliveryLog()
        rows = log.ordered_records()
        log.record("n0", make_event("e0"), 1.0)
        assert rows[0] == DeliveryRecord("n0", "e0", 1.0, 0.0)
        with pytest.raises(TypeError):
            rows[0] = DeliveryRecord("n1", "e0", 1.0, 0.0)
        with pytest.raises(TypeError):
            del rows[0]
        assert not hasattr(rows, "append")
        log.record("n1", make_event("e0"), 2.0)
        assert len(rows) == 2
        assert list(log.latencies_since(1)) == [("n1", 2.0)]

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
            for step, (node, event_id, _, _) in enumerate(sequence):
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


#: A delivery is a row of five numbers, about 30 B on CPython 3.11: a node
#: and an event number and the next row of the event (4 B each), the delivery
#: and publication times (8 B each), plus the arrays' spare room and one bit
#: of a node's bitmap.  A record object per delivery (about 123 B with its
#: two index slots), or a per-pair dict or set next to the columns, crosses
#: this bound.
MAX_BYTES_PER_DELIVERY = 40


class TestMemory:
    def test_each_delivery_is_stored_once(self):
        assert log_bytes_per_delivery(DeliveryLog) <= MAX_BYTES_PER_DELIVERY

    def test_the_bound_rejects_a_record_object_per_delivery(self):
        assert log_bytes_per_delivery(RowObjectDeliveryLog) > MAX_BYTES_PER_DELIVERY

    def test_the_bound_rejects_the_four_structure_log(self):
        assert log_bytes_per_delivery(ReferenceDeliveryLog) > MAX_BYTES_PER_DELIVERY
