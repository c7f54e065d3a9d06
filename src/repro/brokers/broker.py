"""Broker-based baseline (Siena/JEDI style, references [6, 9] of §3).

A small, fixed set of broker nodes carries all the matching and forwarding
work; ordinary participants are pure clients.  Clients send subscriptions
and publications to their home broker; brokers keep a content-based matching
index, flood subscription summaries to the other brokers, and forward each
publication to every broker that hosts a matching subscriber, which then
delivers to its local clients.

The paper uses brokers as the contrast case: the dissemination rate is
coupled to broker capacity, brokers are a reliability bottleneck, and — in
fairness terms — a handful of nodes carries essentially *all* the
contribution while the clients only benefit.  The ledger records make that
concentration measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..core.accounting import WorkLedger
from ..pubsub.events import Event
from ..pubsub.filters import Filter
from ..pubsub.interfaces import DeliveryCallback, DeliveryLog, DisseminationSystem, Participant
from ..pubsub.matching import MatchingEngine
from ..sim.engine import Simulator
from ..sim.network import Message, Network

__all__ = ["BrokerNode", "ClientNode", "BrokerSystem"]

SUBSCRIBE_KIND = "broker.subscribe"
UNSUBSCRIBE_KIND = "broker.unsubscribe"
PUBLISH_KIND = "broker.publish"
INTERBROKER_KIND = "broker.forward"
DELIVER_KIND = "broker.deliver"
SUBSCRIPTION_SYNC_KIND = "broker.sync"


@dataclass(frozen=True)
class _SubscriptionPayload:
    client_id: str
    subscription_filter: Filter
    add: bool


#: ``kind -> payload class`` read by the runtime wire codec
#: (:mod:`repro.runtime.wire`), so broker overlays run on live transports.
WIRE_PAYLOADS = {
    SUBSCRIBE_KIND: _SubscriptionPayload,
    UNSUBSCRIBE_KIND: _SubscriptionPayload,
    SUBSCRIPTION_SYNC_KIND: _SubscriptionPayload,
    PUBLISH_KIND: Event,
    INTERBROKER_KIND: Event,
    DELIVER_KIND: Event,
}


class BrokerNode(Participant):
    """A broker: matches events against subscriptions and forwards them.

    Brokers are infrastructure: they share the ledger (all their work is
    contribution) but never deliver to an application.
    """

    def __init__(
        self,
        node_id: str,
        simulator: Simulator,
        network: Network,
        ledger: WorkLedger,
        delivery_log: DeliveryLog,
    ) -> None:
        super().__init__(node_id, simulator, network, ledger, delivery_log)
        self.matching = MatchingEngine()
        #: Which broker hosts each remotely subscribed client.
        self.peers: List[str] = []
        #: Clients attached locally and remotely known (client -> broker).
        self.client_home: Dict[str, str] = {}
        self.local_clients: Set[str] = set()

    def set_peers(self, peers: Sequence[str]) -> None:
        """Tell this broker about the other brokers."""
        self.peers = [peer for peer in peers if peer != self.node_id]

    def attach_client(self, client_id: str) -> None:
        """Register a client whose home broker is this one."""
        self.local_clients.add(client_id)
        self.client_home[client_id] = self.node_id

    # ------------------------------------------------------------- messages

    def on_message(self, message: Message) -> None:
        if message.kind in (SUBSCRIBE_KIND, UNSUBSCRIBE_KIND):
            self._handle_subscription(message.payload, propagate=True)
        elif message.kind == SUBSCRIPTION_SYNC_KIND:
            self._handle_subscription(message.payload, propagate=False)
        elif message.kind == PUBLISH_KIND:
            self._handle_publish(message.payload, from_broker=False)
        elif message.kind == INTERBROKER_KIND:
            self._handle_publish(message.payload, from_broker=True)

    def _handle_subscription(self, payload: _SubscriptionPayload, propagate: bool) -> None:
        if payload.add:
            self.matching.add(payload.client_id, payload.subscription_filter)
        else:
            self.matching.remove(payload.client_id, payload.subscription_filter)
        if propagate:
            # Share the subscription with the other brokers so any broker can
            # route matching publications towards the client's home broker.
            for peer in self.peers:
                self.send(peer, SUBSCRIPTION_SYNC_KIND, payload=payload, size=1)
                self.ledger.record_subscription_forward(self.node_id)

    def _handle_publish(self, event: Event, from_broker: bool) -> None:
        if not self.mark_seen(event.event_id):
            return
        interested = self.matching.match(event)
        local_targets = sorted(interested & self.local_clients)
        for client in local_targets:
            self.send(client, DELIVER_KIND, payload=event, size=event.size)
        if local_targets:
            self.ledger.record_gossip_send(
                self.node_id,
                messages=len(local_targets),
                events=len(local_targets),
                size=event.size * len(local_targets),
            )
        if not from_broker:
            remote_brokers = sorted(
                {
                    self.client_home.get(client, "")
                    for client in interested
                    if client not in self.local_clients and self.client_home.get(client)
                }
                or set(self.peers)
            )
            for peer in remote_brokers:
                if not peer or peer == self.node_id:
                    continue
                self.send(peer, INTERBROKER_KIND, payload=event, size=event.size)
                self.ledger.record_gossip_send(self.node_id, messages=1, events=1, size=event.size)

    def register_remote_client(self, client_id: str, home_broker: str) -> None:
        """Record which broker hosts a remote client (filled in by the system)."""
        self.client_home[client_id] = home_broker


class ClientNode(Participant):
    """A pure client: publishes to and receives deliveries from its broker."""

    def __init__(
        self,
        node_id: str,
        simulator: Simulator,
        network: Network,
        home_broker: str,
        ledger: WorkLedger,
        delivery_log: DeliveryLog,
    ) -> None:
        super().__init__(node_id, simulator, network, ledger, delivery_log)
        self.home_broker = home_broker

    def subscribe(self, subscription_filter: Filter) -> None:
        """Send the subscription to the home broker."""
        self.ledger.record_subscribe(self.node_id)
        self._tell_broker(SUBSCRIBE_KIND, subscription_filter, add=True)

    def unsubscribe(self, subscription_filter: Filter) -> None:
        """Withdraw the subscription at the home broker."""
        self.ledger.record_unsubscribe(self.node_id)
        self._tell_broker(UNSUBSCRIBE_KIND, subscription_filter, add=False)

    def _tell_broker(self, kind: str, subscription_filter: Filter, add: bool) -> None:
        payload = _SubscriptionPayload(
            client_id=self.node_id, subscription_filter=subscription_filter, add=add
        )
        self.send(self.home_broker, kind, payload=payload, size=1)

    def publish(self, event: Event) -> None:
        """Hand the event to the home broker for dissemination."""
        if not self.alive:
            return
        self.ledger.record_publish(self.node_id)
        self.send(self.home_broker, PUBLISH_KIND, payload=event, size=event.size)

    def on_message(self, message: Message) -> None:
        if message.kind == DELIVER_KIND:
            self.deliver(message.payload)


class BrokerSystem(DisseminationSystem):
    """Client/broker selective dissemination (the centralised contrast case)."""

    name = "brokers"

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        client_ids: Sequence[str],
        broker_count: int = 1,
        ledger: Optional[WorkLedger] = None,
        delivery_log: Optional[DeliveryLog] = None,
    ) -> None:
        if not client_ids:
            raise ValueError("a broker system needs at least one client")
        if broker_count <= 0:
            raise ValueError("broker_count must be positive")
        super().__init__(simulator, network, ledger, delivery_log)
        self.brokers: Dict[str, BrokerNode] = {}
        #: The clients are the system's application-facing nodes.
        self.clients: Dict[str, ClientNode] = self.nodes

        broker_ids = [f"broker-{index}" for index in range(broker_count)]
        for broker_id in broker_ids:
            broker = BrokerNode(broker_id, simulator, network, self.ledger, self._delivery_log)
            broker.start()
            self.brokers[broker_id] = broker
            self.registry.add(broker)
        for broker in self.brokers.values():
            broker.set_peers(broker_ids)

        for index, client_id in enumerate(client_ids):
            home = broker_ids[index % broker_count]
            client = ClientNode(
                client_id, simulator, network, home, self.ledger, self._delivery_log
            )
            client.start()
            self._adopt(client)
            self.brokers[home].attach_client(client_id)
            for broker in self.brokers.values():
                broker.register_remote_client(client_id, home)

    # ------------------------------------------------------------- §2 API

    def publish(self, publisher_id: str, event: Optional[Event] = None, **attributes) -> Event:
        event = self._stamp(publisher_id, event, attributes)
        self.clients[publisher_id].publish(event)
        return event

    def subscribe(
        self,
        node_id: str,
        subscription_filter: Filter,
        callbacks: Sequence[DeliveryCallback] = (),
    ) -> None:
        self.clients[node_id].subscribe(subscription_filter)
        self._subscribed(node_id, subscription_filter, callbacks)

    def unsubscribe(self, node_id: str, subscription_filter: Filter) -> None:
        self.clients[node_id].unsubscribe(subscription_filter)
        self._unsubscribed(node_id, subscription_filter)

    # -------------------------------------------------------------- queries
