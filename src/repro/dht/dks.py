"""DKS-style per-topic grouping with an index DHT (reference [1], §4.1).

DKS(N, k, f) multicast groups processes by interest: each topic has its own
group containing only its subscribers, and a special *index* layer lets any
process find the group of a topic it wants to join or publish to.  The paper
acknowledges that dissemination inside a group is fair (only interested
processes forward), but points out that "some processes in the index DHT
which are close to frequently contacted rendezvous nodes will suffer" — the
index lookup and group-coordination traffic concentrates on the nodes whose
identifiers happen to be close to popular topic keys.

Implementation: one Pastry overlay over all nodes serves as the index.  The
root of ``hash(topic)`` acts as the topic *coordinator*: subscriptions are
routed to it hop by hop (every hop is index maintenance work charged to
uninterested forwarders), it stores the member list, and publications are
routed to it and then sent directly to every member.  Members deliver; the
coordinator and the index-route forwarders do the unpaid work.
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

__all__ = ["DksNode", "DksSystem"]

REGISTER_KIND = "dks.register"
UNREGISTER_KIND = "dks.unregister"
ROUTE_PUBLISH_KIND = "dks.route-publish"
GROUP_SEND_KIND = "dks.group-send"


@dataclass(frozen=True)
class _RegisterPayload:
    topic: str
    member: str
    register: bool


@dataclass(frozen=True)
class _PublishPayload:
    topic: str
    event: Event


#: ``kind -> payload class`` read by the runtime wire codec
#: (:mod:`repro.runtime.wire`).
WIRE_PAYLOADS = {
    REGISTER_KIND: _RegisterPayload,
    UNREGISTER_KIND: _RegisterPayload,
    ROUTE_PUBLISH_KIND: _PublishPayload,
    GROUP_SEND_KIND: _PublishPayload,
}


class DksNode(Participant):
    """A DKS participant: index forwarder, possibly coordinator, possibly member."""

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
        #: Member lists for topics this node coordinates (is rendezvous for).
        self.coordinated_groups: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------ user API

    def subscribe_topic(self, topic: str) -> None:
        """Subscribe and register with the topic's coordinator via the index."""
        if topic not in self.subscribed_topics:
            self.subscribed_topics.add(topic)
            self.ledger.record_subscribe(self.node_id)
        self._route_registration(topic, register=True)

    def unsubscribe_topic(self, topic: str) -> None:
        """Unsubscribe and deregister from the coordinator."""
        if topic in self.subscribed_topics:
            self.subscribed_topics.discard(topic)
            self.ledger.record_unsubscribe(self.node_id)
        self._route_registration(topic, register=False)

    def publish(self, event: Event) -> None:
        """Publish: route the event to its topic coordinator through the index."""
        if not self.alive or event.topic is None:
            return
        self.ledger.record_publish(self.node_id)
        payload = _PublishPayload(topic=event.topic, event=event)
        self._route(ROUTE_PUBLISH_KIND, event.topic, payload, size=event.size)

    # ------------------------------------------------------------- routing

    def _route_registration(self, topic: str, register: bool) -> None:
        payload = _RegisterPayload(topic=topic, member=self.node_id, register=register)
        self._route(REGISTER_KIND if register else UNREGISTER_KIND, topic, payload, size=1)

    def _route(self, kind: str, topic: str, payload, size: int) -> None:
        """One index hop towards the topic's coordinator (or arrival at it)."""
        key = self.router.key_for(topic)
        next_hop = self.router.next_hop(self.node_id, key)
        if next_hop is None:
            self._arrived(kind, payload)
        else:
            self.send(next_hop, kind, payload=payload, size=size)
            if kind == ROUTE_PUBLISH_KIND:
                self.ledger.record_gossip_send(self.node_id, messages=1, events=1, size=size)
            else:
                # An (un)subscription hop: on every node but the subscriber
                # this is pure index maintenance work for someone else, the
                # DKS unfairness the paper names.
                self.ledger.record_subscription_forward(self.node_id)

    # ------------------------------------------------------------- messages

    def on_message(self, message: Message) -> None:
        if message.kind in (REGISTER_KIND, UNREGISTER_KIND, ROUTE_PUBLISH_KIND):
            self._route(message.kind, message.payload.topic, message.payload, message.size)
        elif message.kind == GROUP_SEND_KIND:
            if message.payload.event.topic in self.subscribed_topics:
                self.deliver(message.payload.event)

    def _arrived(self, kind: str, payload) -> None:
        """Handle a message whose route ended at this node (the coordinator)."""
        if kind == REGISTER_KIND:
            self.coordinated_groups.setdefault(payload.topic, set()).add(payload.member)
        elif kind == UNREGISTER_KIND:
            self.coordinated_groups.get(payload.topic, set()).discard(payload.member)
        elif kind == ROUTE_PUBLISH_KIND:
            self._dispatch_to_group(payload)

    def _dispatch_to_group(self, payload: _PublishPayload) -> None:
        members = sorted(self.coordinated_groups.get(payload.topic, set()))
        event = payload.event
        if payload.topic in self.subscribed_topics:
            self.deliver(event)
        targets = [member for member in members if member != self.node_id]
        for member in targets:
            self.send(member, GROUP_SEND_KIND, payload=payload, size=event.size)
        if targets:
            self.ledger.record_gossip_send(
                self.node_id,
                messages=len(targets),
                events=len(targets),
                size=event.size * len(targets),
            )

    def on_crash(self) -> None:
        super().on_crash()
        self.router.set_alive(self.node_id, False)

    def on_recover(self) -> None:
        self.router.set_alive(self.node_id, True)


class DksSystem(DisseminationSystem):
    """Topic-based dissemination with per-topic groups and an index DHT."""

    name = "dks"
    topic_only = "DKS grouping"

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        node_ids: Sequence[str],
        ledger: Optional[WorkLedger] = None,
        delivery_log: Optional[DeliveryLog] = None,
    ) -> None:
        if not node_ids:
            raise ValueError("a DKS system needs at least one node")
        super().__init__(simulator, network, ledger, delivery_log)
        self.router = PastryRouter(list(node_ids))
        for node_id in node_ids:
            node = DksNode(
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
