"""Subscription records and the per-system subscription table.

Section 5.1 stresses that a "fundamental part of work in a selective
information dissemination system deals with ongoing subscriptions and
unsubscriptions": the *maintenance* work.  This module models subscriptions
as first-class records with lifecycle timestamps so that maintenance work can
be measured and charged, and provides a :class:`SubscriptionTable` that
indexes active subscriptions by node, by topic, and by filter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .events import Event, TOPIC_ATTRIBUTE
from .filters import Filter

__all__ = ["Subscription", "SubscriptionTable"]


@dataclass
class Subscription:
    """One active (or historical) subscription of a node to a filter."""

    subscription_id: str
    node_id: str
    subscription_filter: Filter
    subscribed_at: float = 0.0
    unsubscribed_at: Optional[float] = None

    @property
    def active(self) -> bool:
        """Whether the subscription has not been cancelled."""
        return self.unsubscribed_at is None

    @property
    def lifetime(self) -> Optional[float]:
        """Duration of the subscription, or ``None`` while still active."""
        if self.unsubscribed_at is None:
            return None
        return self.unsubscribed_at - self.subscribed_at

    def matches(self, event: Event) -> bool:
        """Whether the subscription's filter matches the event."""
        return self.subscription_filter.matches(event)


class SubscriptionTable:
    """Tracks every subscription in the system, active and historical.

    The table is the ground truth used by:

    * the matching engine (who should deliver a given event);
    * the fairness accounting (how many filters a node has placed);
    * the maintenance-work experiments (rate of subscribe/unsubscribe per
      topic, §5.1).
    """

    def __init__(self) -> None:
        self._sequence = itertools.count()
        self._by_id: Dict[str, Subscription] = {}
        self._active_by_node: Dict[str, Set[str]] = {}
        self._active_by_topic: Dict[str, Set[str]] = {}
        #: Active subscriptions whose filter pins no topic: they can match an
        #: event of any topic, so the topic index alone would miss them.
        self._active_unpinned: Set[str] = set()
        self.total_subscribes = 0
        self.total_unsubscribes = 0

    # ------------------------------------------------------------ mutation

    def subscribe(
        self, node_id: str, subscription_filter: Filter, timestamp: float = 0.0
    ) -> Subscription:
        """Record a new subscription and return it."""
        subscription = Subscription(
            subscription_id=f"sub-{next(self._sequence)}",
            node_id=node_id,
            subscription_filter=subscription_filter,
            subscribed_at=timestamp,
        )
        self._by_id[subscription.subscription_id] = subscription
        self._active_by_node.setdefault(node_id, set()).add(subscription.subscription_id)
        topics = subscription_filter.topics
        for topic in topics:
            self._active_by_topic.setdefault(topic, set()).add(subscription.subscription_id)
        if not topics:
            self._active_unpinned.add(subscription.subscription_id)
        self.total_subscribes += 1
        return subscription

    def unsubscribe(
        self, node_id: str, subscription_filter: Filter, timestamp: float = 0.0
    ) -> Optional[Subscription]:
        """Cancel the node's oldest active subscription with an equal filter.

        Returns the cancelled subscription, or ``None`` if no matching active
        subscription existed (unsubscribing twice is not an error, matching
        the paper's API where ``unsubscribe`` merely removes the guarantee).
        """
        target_id = subscription_filter.filter_id
        candidates = sorted(
            (
                self._by_id[subscription_id]
                for subscription_id in self._active_by_node.get(node_id, ())
                if self._by_id[subscription_id].subscription_filter.filter_id == target_id
            ),
            key=lambda subscription: subscription.subscribed_at,
        )
        if not candidates:
            return None
        subscription = candidates[0]
        self._deactivate(subscription, timestamp)
        self.total_unsubscribes += 1
        return subscription

    def unsubscribe_all(self, node_id: str, timestamp: float = 0.0) -> List[Subscription]:
        """Cancel every active subscription of a node (used on graceful leave)."""
        cancelled = []
        for subscription_id in list(self._active_by_node.get(node_id, ())):
            subscription = self._by_id[subscription_id]
            self._deactivate(subscription, timestamp)
            self.total_unsubscribes += 1
            cancelled.append(subscription)
        return cancelled

    def _deactivate(self, subscription: Subscription, timestamp: float) -> None:
        subscription.unsubscribed_at = timestamp
        self._active_by_node.get(subscription.node_id, set()).discard(subscription.subscription_id)
        for topic in subscription.subscription_filter.topics:
            self._active_by_topic.get(topic, set()).discard(subscription.subscription_id)
        self._active_unpinned.discard(subscription.subscription_id)

    # ------------------------------------------------------------- queries

    def active_subscriptions(self, node_id: Optional[str] = None) -> List[Subscription]:
        """Active subscriptions, optionally restricted to one node."""
        if node_id is not None:
            return [
                self._by_id[subscription_id]
                for subscription_id in sorted(self._active_by_node.get(node_id, ()))
            ]
        return [subscription for subscription in self._by_id.values() if subscription.active]

    def active_filter_count(self, node_id: str) -> int:
        """Number of active filters placed by a node (Figure 2's ``# filters``)."""
        return len(self._active_by_node.get(node_id, ()))

    def subscribers_of_topic(self, topic: str) -> List[str]:
        """Node ids with an active subscription pinned to ``topic`` (sorted)."""
        nodes = {
            self._by_id[subscription_id].node_id
            for subscription_id in self._active_by_topic.get(topic, ())
        }
        return sorted(nodes)

    def topics_of_node(self, node_id: str) -> List[str]:
        """Topics the node is actively subscribed to (sorted, deduplicated)."""
        topics: Set[str] = set()
        for subscription_id in self._active_by_node.get(node_id, ()):
            topics.update(self._by_id[subscription_id].subscription_filter.topics)
        return sorted(topics)

    def interested_nodes(self, event: Event) -> List[str]:
        """Node ids whose active subscriptions match the event (sorted).

        This is the oracle answer for "who should deliver e"; the analysis
        layer compares protocol deliveries against it to compute reliability.
        The filters are the judge; the topic index only prunes candidates,
        which is sound because a filter that pins topics matches no event of
        another topic.  A ``ContentFilter`` pins ``str(value)`` but compares the
        raw value, so an event whose topic is not a string (or is absent) is
        judged against every active subscription.
        """
        topic = event.attribute(TOPIC_ATTRIBUTE)
        if isinstance(topic, str):
            pinned = self._active_by_topic.get(topic, set())
            candidates = [self._by_id[subscription_id] for subscription_id in pinned | self._active_unpinned]
        else:
            candidates = self.active_subscriptions()
        return sorted({subscription.node_id for subscription in candidates if subscription.matches(event)})

    def nodes_with_subscriptions(self) -> List[str]:
        """Nodes that currently hold at least one active subscription."""
        return sorted(node for node, subs in self._active_by_node.items() if subs)

    def churn_counts(self) -> Tuple[int, int]:
        """Total ``(subscribes, unsubscribes)`` seen so far."""
        return self.total_subscribes, self.total_unsubscribes

    def __len__(self) -> int:
        return sum(1 for subscription in self._by_id.values() if subscription.active)
