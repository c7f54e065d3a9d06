"""The selective information dissemination API of Section 2.

Every dissemination system in this repository — classic push gossip, the
fair gossip protocols, Scribe-style trees, brokers, data-aware multicast —
implements the same three operations the paper defines:

* ``publish(e)``
* ``subscribe(f, callbacks)``
* ``unsubscribe(f)``

and every one of them is a set of participants sharing a work ledger, a
delivery log and a subscription table.  That scaffolding lives here, once:

* :class:`DeliveryLog` is the single record of deliveries: the analysis
  layer reads it, and it is the at-most-once check of ``DELIVER(e)``;
* :class:`Participant` is the process every node class extends: it holds the
  shared ledger and log, the application callbacks, and the at-most-once
  ``DELIVER(e)`` path;
* :class:`DisseminationSystem` is the skeleton every ``*System`` (and the
  live :class:`~repro.runtime.host.NodeHost`) extends: shared state, node
  adoption, event stamping, subscription-table bookkeeping and the
  ``delivery_log`` / ``node_ids`` / ``node`` / ``run`` accessors.  A system
  keeps only its own ``publish`` / ``subscribe`` / ``unsubscribe`` — which
  ``perfbench/layers.py`` patches by name, so they stay defined per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.accounting import WorkLedger
from ..sim.node import Process, ProcessRegistry
from .events import Event, EventFactory
from .filters import Filter, TopicFilter
from .subscriptions import SubscriptionTable

__all__ = [
    "DeliveryCallback",
    "DeliveryLog",
    "DeliveryRecord",
    "DisseminationSystem",
    "Participant",
]

#: Signature of a subscriber callback: ``callback(node_id, event)``.
DeliveryCallback = Callable[[str, Event], None]


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    """One delivery of an event at a node."""

    node_id: str
    event_id: str
    delivered_at: float
    published_at: float

    @property
    def latency(self) -> float:
        """Delivery latency in simulated time units."""
        return self.delivered_at - self.published_at


class DeliveryLog:
    """Records every delivery performed by a dissemination system.

    The log answers both per-node questions (how many events did ``p``
    deliver — the *benefit* term of Figures 1–3) and per-event questions
    (which interested nodes delivered ``e`` — the reliability measure of the
    Figure 4 experiments).  Each delivery is stored once: the ``event -> node
    -> record`` index is also :meth:`Participant.deliver`'s at-most-once check.
    """

    def __init__(self) -> None:
        self._by_event: Dict[str, Dict[str, DeliveryRecord]] = {}
        self._ordered: List[DeliveryRecord] = []
        self._counts: Dict[str, int] = {}
        #: event id -> its number, in first-sight order: the index into the
        #: seen map of every participant that shares this log.
        self.event_numbers: Dict[str, int] = {}

    def record(self, node_id: str, event: Event, delivered_at: float) -> Optional[DeliveryRecord]:
        """Record a delivery; duplicate (node, event) pairs are ignored."""
        by_node = self._by_event.setdefault(event.event_id, {})
        if node_id in by_node:
            return None
        record = by_node[node_id] = DeliveryRecord(
            node_id, event.event_id, delivered_at, event.published_at
        )
        self._ordered.append(record)
        self._counts[node_id] = self._counts.get(node_id, 0) + 1
        return record

    def ordered_records(self) -> Sequence[DeliveryRecord]:
        """Every record in arrival order (read-only view, do not mutate).

        Incremental consumers — the telemetry collector streaming latencies
        into a histogram mid-run — remember how far they read and index from
        there, so each tick costs O(new records), not O(all records).
        """
        return self._ordered

    def delivered(self, node_id: str, event_id: str) -> bool:
        """Whether the node has delivered the event."""
        return node_id in self._by_event.get(event_id, ())

    def deliveries_by_node(self, node_id: str) -> List[DeliveryRecord]:
        """All deliveries performed by a node, in arrival order (a scan)."""
        return [record for record in self._ordered if record.node_id == node_id]

    def deliveries_of_event(self, event_id: str) -> List[DeliveryRecord]:
        """All deliveries of one event across the system, in arrival order."""
        return list(self._by_event.get(event_id, {}).values())

    def delivery_count(self, node_id: str) -> int:
        """Number of events delivered by a node (the benefit numerator)."""
        return self._counts.get(node_id, 0)

    def nodes(self) -> List[str]:
        """Nodes that delivered at least one event (sorted)."""
        return sorted(self._counts)

    def event_ids(self) -> List[str]:
        """Ids of events delivered at least once (sorted)."""
        return sorted(self._by_event)

    def total_deliveries(self) -> int:
        """Total number of (node, event) deliveries."""
        return len(self._ordered)

    def latencies(self) -> List[float]:
        """Latency of every delivery, in no particular order."""
        return [
            record.delivered_at - record.published_at
            for by_node in self._by_event.values()
            for record in by_node.values()
        ]


class Participant(Process):
    """A process that takes part in a dissemination system.

    Holds what every node class of every system needs next to its protocol
    state: the shared :class:`~repro.core.accounting.WorkLedger` and
    :class:`DeliveryLog` (which also remembers what the node already
    delivered), the application callbacks, and which events the node has
    seen, one byte per event.
    """

    def __init__(
        self, node_id: str, simulator, network, ledger: WorkLedger, delivery_log: DeliveryLog
    ) -> None:
        super().__init__(node_id, simulator, network)
        self.ledger = ledger
        self.delivery_log = delivery_log
        self._callbacks: List[DeliveryCallback] = []
        #: One byte per event, indexed by ``delivery_log.event_numbers``: 1
        #: once seen here.  A number past the end has not been seen yet.
        self._seen = bytearray()
        ledger.ensure_node(node_id)

    def has_seen(self, event_id: str) -> bool:
        """Whether this node has seen the event (see :meth:`mark_seen`)."""
        number = self.delivery_log.event_numbers.get(event_id)
        return number is not None and number < len(self._seen) and self._seen[number] == 1

    def mark_seen(self, event_id: str) -> bool:
        """Remember the event as seen here; True on its first sight."""
        numbers = self.delivery_log.event_numbers
        number = numbers.setdefault(event_id, len(numbers))
        seen = self._seen
        if number >= len(seen):
            seen.extend(bytes(number + 1 - len(seen)))
        elif seen[number]:
            return False
        seen[number] = 1
        return True

    def add_delivery_callback(self, callback: DeliveryCallback) -> None:
        """Register an application callback invoked on every delivery."""
        self._callbacks.append(callback)

    def deliver(self, event: Event) -> bool:
        """``DELIVER(e)``, at most once per event; returns False on a repeat.

        A first delivery is the receiver's benefit in the ledger, one record
        in the delivery log, and one call of every application callback.
        """
        if self.delivery_log.record(self.node_id, event, delivered_at=self.simulator.now) is None:
            return False
        self.ledger.record_delivery(self.node_id)
        for callback in self._callbacks:
            callback(self.node_id, event)
        return True

    def on_crash(self) -> None:
        self.ledger.record_crash(self.node_id)


class DisseminationSystem:
    """Selective information dissemination system (§2): the shared skeleton.

    A concrete system builds its participants, hands each to :meth:`_adopt`,
    and defines the three operations on top of :meth:`_stamp` (publish) and
    :meth:`_subscribed` / :meth:`_unsubscribed` (subscription table).

    Parameters
    ----------
    simulator / network:
        Pre-built substrate — the discrete-event pair or the live runtime's
        scheduler and network, which duck-type it.
    ledger / delivery_log:
        Shared accounting state; fresh ones are created when omitted.
    """

    #: Short machine-readable name used in reports and benchmark tables.
    name: str = "abstract"
    #: What a topic-only system calls itself in its errors; systems that
    #: also carry content-based events and filters leave it ``None``.
    topic_only: Optional[str] = None
    #: :class:`~repro.topology.runtime.TopologyRuntime` of a multi-domain
    #: stack (set by ``build_stack``); ``None`` on a flat one.
    topology = None

    def __init__(
        self,
        simulator,
        network,
        ledger: Optional[WorkLedger] = None,
        delivery_log: Optional[DeliveryLog] = None,
    ) -> None:
        self.simulator = simulator
        self.network = network
        self.ledger = ledger if ledger is not None else WorkLedger()
        self._delivery_log = delivery_log if delivery_log is not None else DeliveryLog()
        self.subscriptions = SubscriptionTable()
        #: Every process of the system, infrastructure-only ones included
        #: (fault injection crashes and recovers nodes through it).
        self.registry = ProcessRegistry()
        #: Application-facing participants: they publish, subscribe, deliver.
        self.nodes: Dict[str, Participant] = {}
        self._factories: Dict[str, EventFactory] = {}

    def _adopt(self, node: Participant) -> None:
        """Take an application-facing participant into the system."""
        self.nodes[node.node_id] = node
        self.registry.add(node)
        self._factories[node.node_id] = EventFactory(node.node_id)

    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`~repro.tracing.Tracer` to the built system.

        Spans stamp protocol time (``simulator.now`` on either engine, so
        sim and live traces of one scenario line up), the fabric emits
        ``drop`` spans, and every node that traces (the gossip family)
        gets the tracer.  Tracing only reads: no RNG draw, nothing scheduled.
        """
        tracer.attach_clock(lambda: self.simulator.now)
        self.network.tracer = tracer
        for node in self.client_nodes().values():
            if hasattr(node, "_trace_state"):
                node.tracer = tracer

    # ------------------------------------------------------------- §2 API

    def publish(self, publisher_id: str, event: Optional[Event] = None, **attributes) -> Event:
        """Publish from ``publisher_id``; returns the stamped event.

        Either pass a pre-built :class:`Event` or keyword attributes (with an
        optional ``topic=...`` and ``size=...``) and the system builds one.
        """
        raise NotImplementedError

    def subscribe(
        self,
        node_id: str,
        subscription_filter: Filter,
        callbacks: Sequence[DeliveryCallback] = (),
    ) -> None:
        """Register interest of ``node_id`` in events matching the filter."""
        raise NotImplementedError

    def unsubscribe(self, node_id: str, subscription_filter: Filter) -> None:
        """Withdraw a previously registered interest."""
        raise NotImplementedError

    # ------------------------------------------------- shared by the three

    def _stamp(self, publisher_id: str, event: Optional[Event], attributes: dict) -> Event:
        """The event to publish: built from ``attributes`` if needed, timed now."""
        if event is None:
            topic = attributes.pop("topic", None)
            size = attributes.pop("size", 1)
            factory = self._factories[publisher_id]
            event = factory.create(attributes=attributes, topic=topic, size=size)
        if self.topic_only and event.topic is None:
            raise ValueError(f"{self.topic_only} is topic-based: the event needs a topic")
        return event.with_time(self.simulator.now)

    def _topic_of(self, subscription_filter: Filter) -> str:
        """The topic of a filter handed to a topic-only system."""
        if not isinstance(subscription_filter, TopicFilter):
            raise TypeError(
                f"{self.topic_only} supports topic-based subscriptions only; use a TopicFilter"
            )
        return subscription_filter.topic

    def _subscribed(
        self,
        node_id: str,
        subscription_filter: Filter,
        callbacks: Sequence[DeliveryCallback] = (),
        record: bool = True,
    ) -> None:
        """Table entry (unless the node already had the filter) and callbacks."""
        if record:
            self.subscriptions.subscribe(
                node_id, subscription_filter, timestamp=self.simulator.now
            )
        node = self.nodes[node_id]
        for callback in callbacks:
            node.add_delivery_callback(callback)

    def _unsubscribed(self, node_id: str, subscription_filter: Filter) -> None:
        self.subscriptions.unsubscribe(
            node_id, subscription_filter, timestamp=self.simulator.now
        )

    # -------------------------------------------------------------- queries

    @property
    def delivery_log(self) -> DeliveryLog:
        """The log of all deliveries performed so far."""
        return self._delivery_log

    def node_ids(self) -> List[str]:
        """Identifiers of all participants of the system (sorted)."""
        return sorted(self.nodes)

    def node(self, node_id: str) -> Participant:
        """Return the node object for ``node_id``."""
        return self.nodes[node_id]

    def client_nodes(self) -> Dict[str, Participant]:
        """Application-facing nodes, keyed by node id.

        These are the participants that publish, subscribe, and deliver —
        the nodes a host attaches delivery callbacks to.  Infrastructure-only
        processes (the broker overlay's brokers, which never deliver to an
        application) are in :attr:`registry` but not here.
        """
        return self.nodes

    def interested_nodes(self, event: Event) -> List[str]:
        """Oracle: which nodes should deliver this event (from the table)."""
        return self.subscriptions.interested_nodes(event)

    def topics_of(self, node_id: str) -> List[str]:
        """Topics a node is subscribed to (per the subscription table)."""
        return self.subscriptions.topics_of_node(node_id)

    def run(self, until: float) -> None:
        """Advance the simulation to time ``until``."""
        self.simulator.run(until=until)
