"""Data-aware multicast baseline (reference [3], §4.2).

Data-aware multicast (dam) organises topics into a hierarchy and maintains
one gossip group per topic containing only that topic's subscribers, so
dissemination work is only performed by interested processes — the paper
credits it with "fairness with respect to the dissemination".  The catch the
paper points out is the *grouping maintenance*: bridging between levels of
the hierarchy requires some processes to join a **supertopic** group, which
forces them to handle traffic for all descendant topics "similar to a broker
in a client/server architecture".

Implementation:

* a :class:`~repro.pubsub.topics.TopicHierarchy` defines the topic tree;
* each topic has a gossip group of its subscribers;
* each *root* topic additionally has a small set of **delegates** — members
  recruited from the subtree's subscribers (or arbitrary nodes if the
  subtree has none) — that join every group in the subtree so a publisher
  that is not itself subscribed can hand its event to a delegate;
* dissemination inside a group is an infect-and-die epidemic: on first
  receipt of an event, a member forwards it to ``fanout`` random other group
  members, which keeps per-member work bounded and interest-local.

The fairness experiments then show exactly the paper's observation: ordinary
members have a clean contribution/benefit ratio, delegates look like small
brokers.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..core.accounting import WorkLedger
from ..pubsub.events import Event
from ..pubsub.filters import Filter
from ..pubsub.interfaces import DeliveryCallback, DeliveryLog, DisseminationSystem, Participant
from ..pubsub.topics import TopicHierarchy, topic_path
from ..sim.engine import Simulator
from ..sim.network import Message, Network

__all__ = ["DamNode", "DataAwareMulticastSystem"]

GROUP_GOSSIP_KIND = "dam.gossip"
HANDOFF_KIND = "dam.handoff"


@dataclass(frozen=True)
class _GossipPayload:
    topic: str
    event: Event


#: ``kind -> payload class`` read by the runtime wire codec
#: (:mod:`repro.runtime.wire`).
WIRE_PAYLOADS = {
    GROUP_GOSSIP_KIND: _GossipPayload,
    HANDOFF_KIND: _GossipPayload,
}


class DamNode(Participant):
    """A data-aware multicast participant."""

    def __init__(
        self,
        node_id: str,
        simulator: Simulator,
        network: Network,
        system: "DataAwareMulticastSystem",
        ledger: WorkLedger,
        delivery_log: DeliveryLog,
        fanout: int = 3,
    ) -> None:
        super().__init__(node_id, simulator, network, ledger, delivery_log)
        self.system = system
        self.fanout = fanout
        self.subscribed_topics: Set[str] = set()
        #: Topics whose group this node belongs to (subscriptions + delegate duties).
        self.group_topics: Set[str] = set()
        #: Bound on the first spread: a node outside every group never
        #: spreads and so never pays for a stream.
        self._rng = None

    # ------------------------------------------------------------ user API

    def subscribe_topic(self, topic: str) -> None:
        """Subscribe to a topic (joins its gossip group)."""
        if topic not in self.subscribed_topics:
            self.subscribed_topics.add(topic)
            self.ledger.record_subscribe(self.node_id)
        self.group_topics.add(topic)

    def unsubscribe_topic(self, topic: str) -> None:
        """Drop the subscription (delegate duties, if any, are kept)."""
        if topic in self.subscribed_topics:
            self.subscribed_topics.discard(topic)
            self.ledger.record_unsubscribe(self.node_id)
        if not self.system.is_delegate(self.node_id, topic):
            self.group_topics.discard(topic)

    def become_delegate(self, topic: str) -> None:
        """Join a group as a delegate (bridging duty, not interest)."""
        self.group_topics.add(topic)

    def publish(self, event: Event) -> None:
        """Publish an event into its topic group (via a delegate if needed)."""
        if not self.alive or event.topic is None:
            return
        self.ledger.record_publish(self.node_id)
        topic = event.topic
        if topic in self.group_topics:
            self._spread(topic, event, first_touch=True)
            return
        # Not a group member: hand the event to a delegate of the topic's root.
        delegate = self.system.delegate_for(topic, exclude=self.node_id)
        if delegate is None:
            return
        self.send(delegate, HANDOFF_KIND, payload=_GossipPayload(topic=topic, event=event), size=event.size)
        self.ledger.record_gossip_send(self.node_id, messages=1, events=1, size=event.size)

    # ------------------------------------------------------------- gossip

    def _spread(self, topic: str, event: Event, first_touch: bool) -> None:
        """Infect-and-die: deliver if interested, forward to random group members.

        ``first_touch`` is the publisher's own injection or a handoff to a
        delegate, which spreads even an event the node has already seen.
        """
        if not self.mark_seen(event.event_id) and not first_touch:
            return
        if topic in self.subscribed_topics:
            self.deliver(event)
        members = self.system.group_members(topic)
        rng = self._rng
        if rng is None:
            rng = self._rng = self.simulator.rng.stream(f"dam:{self.node_id}")
        at = bisect_left(members, self.node_id)
        candidates = members[:at] + members[at + 1 :] if members[at : at + 1] == [self.node_id] else members
        if not candidates:
            return
        targets = candidates if self.fanout >= len(candidates) else rng.sample(candidates, self.fanout)
        payload = _GossipPayload(topic=topic, event=event)
        for target in targets:
            self.send(target, GROUP_GOSSIP_KIND, payload=payload, size=event.size)
        self.ledger.record_gossip_send(
            self.node_id, messages=len(targets), events=len(targets), size=event.size * len(targets)
        )

    def on_message(self, message: Message) -> None:
        if message.kind in (GROUP_GOSSIP_KIND, HANDOFF_KIND):
            # A handoff comes from a publisher outside the group: spread it.
            payload: _GossipPayload = message.payload
            self._spread(payload.topic, payload.event, message.kind == HANDOFF_KIND)


class DataAwareMulticastSystem(DisseminationSystem):
    """Topic-hierarchy gossip groups with supertopic delegates."""

    name = "data-aware-multicast"
    topic_only = "data-aware multicast"

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        node_ids: Sequence[str],
        hierarchy: Optional[TopicHierarchy] = None,
        fanout: int = 3,
        delegates_per_root: int = 2,
        ledger: Optional[WorkLedger] = None,
        delivery_log: Optional[DeliveryLog] = None,
    ) -> None:
        if not node_ids:
            raise ValueError("a dam system needs at least one node")
        if delegates_per_root <= 0:
            raise ValueError("delegates_per_root must be positive")
        super().__init__(simulator, network, ledger, delivery_log)
        self.hierarchy = hierarchy if hierarchy is not None else TopicHierarchy()
        self.fanout = fanout
        self.delegates_per_root = delegates_per_root
        self._groups: Dict[str, Set[str]] = {}
        self._delegates: Dict[str, List[str]] = {}
        #: ``topic -> group_members(topic)``, dropped when its group changes.
        self._members: Dict[str, List[str]] = {}
        for node_id in node_ids:
            node = DamNode(
                node_id, simulator, network, self, self.ledger, self._delivery_log, fanout=fanout
            )
            node.start()
            self._adopt(node)

    # ------------------------------------------------------------ grouping

    def group_members(self, topic: str) -> List[str]:
        """Current members of a topic's gossip group, sorted (shared: do not mutate)."""
        members = self._members.get(topic)
        if members is None:
            delegates = self._delegates.get(topic_path(topic)[0], ())
            members = self._members[topic] = sorted(self._groups.get(topic, set()).union(delegates))
        return members

    def is_delegate(self, node_id: str, topic: str) -> bool:
        """Whether ``node_id`` serves as a delegate covering ``topic``."""
        root = topic_path(topic)[0]
        return node_id in self._delegates.get(root, ())

    def delegate_for(self, topic: str, exclude: str = "") -> Optional[str]:
        """A delegate able to inject an event into ``topic``'s group."""
        root = topic_path(topic)[0]
        self._ensure_delegates(root)
        candidates = [node for node in self._delegates.get(root, ()) if node != exclude]
        if not candidates:
            return None
        rng = self.simulator.rng.stream("dam-delegates")
        return rng.choice(candidates)

    def _ensure_delegates(self, root: str) -> None:
        """Recruit delegates for a root topic's subtree if missing or dead."""
        existing = [
            node_id
            for node_id in self._delegates.get(root, ())
            if self.nodes[node_id].alive
        ]
        if len(existing) >= self.delegates_per_root:
            self._set_delegates(root, existing)
            return
        # Prefer subscribers anywhere in the subtree (they at least benefit
        # from part of the traffic), fall back to arbitrary nodes.
        subtree_topics = [root] + [topic.name for topic in self.hierarchy.descendants(root)] if root in self.hierarchy else [root]
        pool: List[str] = []
        for topic in subtree_topics:
            pool.extend(self._groups.get(topic, ()))
        if not pool:
            pool = sorted(self.nodes)
        rng = self.simulator.rng.stream("dam-delegates")
        unique_pool = sorted(set(pool) - set(existing))
        while len(existing) < self.delegates_per_root and unique_pool:
            pick = rng.choice(unique_pool)
            unique_pool.remove(pick)
            existing.append(pick)
        self._set_delegates(root, existing)
        # A delegate joins every group of the subtree it bridges.
        for node_id in existing:
            for topic in subtree_topics:
                self.nodes[node_id].become_delegate(topic)

    def _set_delegates(self, root: str, delegates: List[str]) -> None:
        if self._delegates.get(root) != delegates:
            self._delegates[root] = delegates
            self._members.clear()

    # ------------------------------------------------------------- §2 API

    def publish(self, publisher_id: str, event: Optional[Event] = None, **attributes) -> Event:
        event = self._stamp(publisher_id, event, attributes)
        if event.topic not in self.hierarchy:
            self.hierarchy.add(event.topic)
        self._ensure_delegates(topic_path(event.topic)[0])
        self.nodes[publisher_id].publish(event)
        return event

    def subscribe(
        self,
        node_id: str,
        subscription_filter: Filter,
        callbacks: Sequence[DeliveryCallback] = (),
    ) -> None:
        topic = self._topic_of(subscription_filter)
        if topic not in self.hierarchy:
            self.hierarchy.add(topic)
        self.nodes[node_id].subscribe_topic(topic)
        self._groups.setdefault(topic, set()).add(node_id)
        self._members.pop(topic, None)
        self._subscribed(node_id, subscription_filter, callbacks)

    def unsubscribe(self, node_id: str, subscription_filter: Filter) -> None:
        topic = self._topic_of(subscription_filter)
        self.nodes[node_id].unsubscribe_topic(topic)
        if not self.is_delegate(node_id, topic):
            self._groups.get(topic, set()).discard(node_id)
            self._members.pop(topic, None)
        self._unsubscribed(node_id, subscription_filter)

    # -------------------------------------------------------------- queries

    def delegates(self) -> Dict[str, List[str]]:
        """Current delegates per root topic."""
        return {root: list(nodes) for root, nodes in self._delegates.items()}
