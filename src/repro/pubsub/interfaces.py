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
  layer reads it, and it is the at-most-once check of ``DELIVER(e)``.  It
  keeps each delivery as one row of numbers in ``array`` columns and builds
  a :class:`DeliveryRecord` only when a reader asks for one;
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

from array import array
from dataclasses import dataclass
from itertools import islice
from operator import sub
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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
    Figure 4 experiments).  It is also :meth:`Participant.deliver`'s
    at-most-once check.

    A delivery is one row of numbers, not an object: the node's number, the
    event's number (from :attr:`event_numbers`), the delivery and the
    publication time, and the next row of the same event, each in its own
    ``array`` column.  The publication time is kept per row because one id
    can reach the log with two times (an event published twice, a frame
    that differs from the event the process already holds).  A per-node
    bitmap, one bit per event number, answers "delivered already?", and the
    first and last row per event number thread each event's rows.  Readers
    get :class:`DeliveryRecord` rows built when read (:meth:`ordered_records`)
    or ``(node id, latency)`` pairs straight from the columns
    (:meth:`latencies_since`, :meth:`event_latencies`).
    """

    def __init__(self) -> None:
        #: event id -> its number, in first-sight order: the index into the
        #: seen map of every participant that shares this log, and into the
        #: per-event columns here.  Numbers are dense: an id's number is the
        #: count of ids before it.
        self.event_numbers: Dict[str, int] = {}
        self._event_ids: List[str] = []
        self._node_numbers: Dict[str, int] = {}
        self._node_ids: List[str] = []
        self._delivered: List[bytearray] = []
        self._counts = array("i")
        self._first = array("i")
        self._last = array("i")
        self._row_node = array("i")
        self._row_event = array("i")
        self._row_at = array("d")
        self._row_published = array("d")
        self._row_next = array("i")

    def record(self, node_id: str, event: Event, delivered_at: float) -> bool:
        """Record a delivery; False (and nothing recorded) for a repeated pair."""
        node = self._node_numbers.get(node_id)
        if node is None:
            node = self._node_numbers[node_id] = len(self._node_ids)
            self._node_ids.append(node_id)
            self._delivered.append(bytearray())
            self._counts.append(0)
        numbers = self.event_numbers
        number = numbers.setdefault(event.event_id, len(numbers))
        bits, byte, mask = self._delivered[node], number >> 3, 1 << (number & 7)
        if byte >= len(bits):
            bits.extend(bytes(byte + 1 - len(bits)))
        elif bits[byte] & mask:
            return False
        bits[byte] |= mask
        self._counts[node] += 1
        row = len(self._row_node)
        self._row_node.append(node)
        self._row_event.append(number)
        self._row_at.append(delivered_at)
        self._row_published.append(event.published_at)
        self._row_next.append(-1)
        first, last = self._first, self._last
        if number >= len(first):
            unset = array("i", [-1]) * (number + 1 - len(first))
            first.extend(unset)
            last.extend(unset)
        if first[number] < 0:
            first[number] = row
        else:
            self._row_next[last[number]] = row
        last[number] = row
        return True

    def ordered_records(self) -> Sequence[DeliveryRecord]:
        """Every delivery in arrival order, as a read-only live view.

        Each item is a :class:`DeliveryRecord` built when it is read; the
        view's length follows the log as it grows.
        """
        return _DeliveryRows(self)

    def latencies_since(self, start: int) -> Iterator[Tuple[str, float]]:
        """``(node id, latency)`` of every delivery from arrival index ``start`` on.

        Incremental consumers — the telemetry collector streaming latencies
        into a histogram mid-run — remember how far they read and pass that
        index, so each tick costs O(new deliveries), not O(all deliveries).
        """
        end = len(self._row_node)
        return zip(
            map(self._node_ids.__getitem__, self._row_node[start:end]),
            map(sub, self._row_at[start:end], self._row_published[start:end]),
        )

    def event_latencies(self, event_id: str) -> Iterator[Tuple[str, float]]:
        """``(node id, latency)`` of every delivery of one event, in arrival order."""
        node_ids, row_node = self._node_ids, self._row_node
        at, published = self._row_at, self._row_published
        return (
            (node_ids[row_node[row]], at[row] - published[row])
            for row in self._rows_of(event_id)
        )

    def delivery_count(self, node_id: str) -> int:
        """Number of events delivered by a node (the benefit numerator)."""
        node = self._node_numbers.get(node_id)
        return 0 if node is None else self._counts[node]

    def total_deliveries(self) -> int:
        """Total number of (node, event) deliveries."""
        return len(self._row_node)

    def _rows_of(self, event_id: str) -> Iterator[int]:
        number = self.event_numbers.get(event_id)
        row = self._first[number] if number is not None and number < len(self._first) else -1
        next_row = self._row_next
        while row >= 0:
            yield row
            row = next_row[row]

    def _record_at(self, row: int) -> DeliveryRecord:
        number = self._row_event[row]
        event_ids = self._event_ids
        if number >= len(event_ids):
            event_ids.extend(islice(self.event_numbers, len(event_ids), None))
        return DeliveryRecord(
            self._node_ids[self._row_node[row]],
            event_ids[number],
            self._row_at[row],
            self._row_published[row],
        )


class _DeliveryRows(Sequence[DeliveryRecord]):
    """The rows of a :class:`DeliveryLog` in arrival order; it cannot be assigned to."""

    __slots__ = ("_log",)

    def __init__(self, log: DeliveryLog) -> None:
        self._log = log

    def __len__(self) -> int:
        return self._log.total_deliveries()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._log._record_at(row) for row in range(*index.indices(len(self)))]
        return self._log._record_at(index)

    def __iter__(self) -> Iterator[DeliveryRecord]:
        return map(self._log._record_at, range(len(self)))


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
        if not self.delivery_log.record(self.node_id, event, delivered_at=self.simulator.now):
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
        self.registry.subscriptions = self.subscriptions
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

    def run(self, until: float) -> None:
        """Advance the simulation to time ``until``."""
        self.simulator.run(until=until)
