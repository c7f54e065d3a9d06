"""Scribe-style rendezvous multicast trees (reference [8], §4.1).

Scribe builds one application-level multicast tree per topic: the topic is
hashed to a key, the key's root in the Pastry overlay is the *rendezvous
node*, and a node joins the tree by routing a JOIN towards the rendezvous —
every node on the route becomes a forwarder (an interior tree node) whether
or not it is interested in the topic.  Publishing routes the event to the
rendezvous and then floods it down the tree.

This is the paper's canonical example of an *unfair* structured system
(§4.1): interior nodes and rendezvous nodes contribute forwarding work for
topics they never subscribed to, and a node with many subscriptions works no
more than one with a single subscription.  The implementation therefore
charges every forwarded JOIN, publish-route hop, and multicast hop to the
forwarding node's ledger account so the fairness experiments can measure
exactly that effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set

from ..core.accounting import WorkLedger
from ..pubsub.events import Event
from ..pubsub.filters import Filter
from ..pubsub.interfaces import DeliveryCallback, DeliveryLog, DisseminationSystem, Participant
from ..sim.engine import Simulator
from ..sim.network import Message, Network
from .pastry import PastryRouter

__all__ = ["ScribeNode", "ScribeSystem"]

JOIN_KIND = "scribe.join"
LEAVE_KIND = "scribe.leave"
ROUTE_PUBLISH_KIND = "scribe.route-publish"
MULTICAST_KIND = "scribe.multicast"


@dataclass(frozen=True)
class _TreeChange:
    """A child joining or leaving a topic's tree (the message kind says which)."""

    routing_topic: str
    child: str


@dataclass(frozen=True)
class _PublishPayload:
    routing_topic: str
    event: Event


#: ``kind -> payload class`` read by the runtime wire codec
#: (:mod:`repro.runtime.wire`); SplitStream reuses these kinds unchanged.
WIRE_PAYLOADS = {
    JOIN_KIND: _TreeChange,
    LEAVE_KIND: _TreeChange,
    ROUTE_PUBLISH_KIND: _PublishPayload,
    MULTICAST_KIND: _PublishPayload,
}


class ScribeNode(Participant):
    """One Pastry/Scribe participant.

    ``routing_topic`` is the name hashed to pick the rendezvous (it differs
    from the event's real topic only for SplitStream stripes); interest is
    always evaluated on the event's real topic.
    """

    def __init__(
        self,
        node_id: str,
        simulator: Simulator,
        network: Network,
        router: PastryRouter,
        ledger: WorkLedger,
        delivery_log: DeliveryLog,
    ) -> None:
        super().__init__(node_id, simulator, network, ledger, delivery_log)
        self.router = router
        self.subscribed_topics: Set[str] = set()
        self.children: Dict[str, Set[str]] = {}
        self.parent: Dict[str, Optional[str]] = {}
        self.forwarder_topics: Set[str] = set()

    # ------------------------------------------------------------ user API

    def subscribe_topic(self, topic: str, routing_topic: Optional[str] = None) -> None:
        """Subscribe to ``topic`` and join the multicast tree for it."""
        routing_topic = routing_topic or topic
        if topic not in self.subscribed_topics:
            self.subscribed_topics.add(topic)
            self.ledger.record_subscribe(self.node_id)
        self._join_tree(routing_topic)

    def unsubscribe_topic(self, topic: str, routing_topic: Optional[str] = None) -> None:
        """Drop the subscription; leave the tree if no children depend on us."""
        routing_topic = routing_topic or topic
        if topic in self.subscribed_topics:
            self.subscribed_topics.discard(topic)
            self.ledger.record_unsubscribe(self.node_id)
        self._maybe_leave(routing_topic)

    def publish(self, event: Event, routing_topic: Optional[str] = None) -> None:
        """Publish an event: route it to the rendezvous of its topic."""
        if not self.alive:
            return
        self.ledger.record_publish(self.node_id)
        self._route_publish(
            _PublishPayload(routing_topic=routing_topic or (event.topic or ""), event=event)
        )

    # ------------------------------------------------------------ tree join

    def _join_tree(self, routing_topic: str) -> None:
        if routing_topic in self.forwarder_topics:
            return
        self.forwarder_topics.add(routing_topic)
        self.children.setdefault(routing_topic, set())
        key = self.router.key_for(routing_topic)
        next_hop = self.router.next_hop(self.node_id, key)
        self.parent[routing_topic] = next_hop
        if next_hop is not None:
            self.send(
                next_hop,
                JOIN_KIND,
                payload=_TreeChange(routing_topic=routing_topic, child=self.node_id),
            )
            self.ledger.record_subscription_forward(self.node_id)

    def _maybe_leave(self, routing_topic: str) -> None:
        """Leave the tree if this node neither subscribes nor forwards for others."""
        interested = any(
            topic == routing_topic or routing_topic.startswith(f"{topic}#")
            for topic in self.subscribed_topics
        )
        if interested or self.children.get(routing_topic):
            return
        if routing_topic not in self.forwarder_topics:
            return
        self.forwarder_topics.discard(routing_topic)
        parent = self.parent.pop(routing_topic, None)
        if parent is not None:
            self.send(
                parent,
                LEAVE_KIND,
                payload=_TreeChange(routing_topic=routing_topic, child=self.node_id),
            )
            self.ledger.record_subscription_forward(self.node_id)

    # ------------------------------------------------------------- messages

    def on_message(self, message: Message) -> None:
        if message.kind == JOIN_KIND:
            self._handle_join(message.payload)
        elif message.kind == LEAVE_KIND:
            self._handle_leave(message.payload)
        elif message.kind == ROUTE_PUBLISH_KIND:
            self._route_publish(message.payload)
        elif message.kind == MULTICAST_KIND:
            self._multicast(message.payload, received_from=message.sender)

    def _handle_join(self, payload: _TreeChange) -> None:
        self.children.setdefault(payload.routing_topic, set()).add(payload.child)
        # Become a forwarder (possibly without any interest of our own) and
        # keep joining towards the rendezvous — this is Scribe's unfairness.
        self._join_tree(payload.routing_topic)

    def _handle_leave(self, payload: _TreeChange) -> None:
        topic = payload.routing_topic
        self.children.get(topic, set()).discard(payload.child)
        self._maybe_leave(topic)

    def _route_publish(self, payload: _PublishPayload) -> None:
        """One hop towards the rendezvous, which starts the downward multicast."""
        key = self.router.key_for(payload.routing_topic)
        next_hop = self.router.next_hop(self.node_id, key)
        if next_hop is None:
            self._multicast(payload, received_from=None)
        else:
            self.send(next_hop, ROUTE_PUBLISH_KIND, payload=payload, size=payload.event.size)
            self.ledger.record_gossip_send(
                self.node_id, messages=1, events=1, size=payload.event.size
            )

    def _multicast(self, payload: _PublishPayload, received_from: Optional[str]) -> None:
        """Deliver locally if interested and forward down the tree."""
        event = payload.event
        if event.topic in self.subscribed_topics:
            self.deliver(event)
        children = self.children.get(payload.routing_topic, set())
        targets = [child for child in sorted(children) if child != received_from]
        for child in targets:
            self.send(child, MULTICAST_KIND, payload=payload, size=event.size)
        if targets:
            self.ledger.record_gossip_send(
                self.node_id, messages=len(targets), events=len(targets), size=event.size * len(targets)
            )

    # ----------------------------------------------------------- accounting

    def on_crash(self) -> None:
        super().on_crash()
        self.router.set_alive(self.node_id, False)

    def on_recover(self) -> None:
        self.router.set_alive(self.node_id, True)


class ScribeSystem(DisseminationSystem):
    """Topic-based dissemination over Scribe-style multicast trees."""

    name = "scribe"
    topic_only = "Scribe (like the paper's description of it)"

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        node_ids: Sequence[str],
        ledger: Optional[WorkLedger] = None,
        delivery_log: Optional[DeliveryLog] = None,
    ) -> None:
        if not node_ids:
            raise ValueError("a Scribe system needs at least one node")
        super().__init__(simulator, network, ledger, delivery_log)
        self.router = PastryRouter(list(node_ids))
        for node_id in node_ids:
            node = ScribeNode(
                node_id, simulator, network, self.router, self.ledger, self._delivery_log
            )
            node.start()
            self._adopt(node)

    # ------------------------------------------------------------- §2 API

    def publish(self, publisher_id: str, event: Optional[Event] = None, **attributes) -> Event:
        event = self._stamp(publisher_id, event, attributes)
        self.nodes[publisher_id].publish(event)
        return event

    def subscribe(
        self,
        node_id: str,
        subscription_filter: Filter,
        callbacks: Sequence[DeliveryCallback] = (),
    ) -> None:
        self.nodes[node_id].subscribe_topic(self._topic_of(subscription_filter))
        self._subscribed(node_id, subscription_filter, callbacks)

    def unsubscribe(self, node_id: str, subscription_filter: Filter) -> None:
        self.nodes[node_id].unsubscribe_topic(self._topic_of(subscription_filter))
        self._unsubscribed(node_id, subscription_filter)

    # -------------------------------------------------------------- queries
