"""Subscription records, the per-system subscription table and the filter index.

Section 5.1 stresses that a "fundamental part of work in a selective
information dissemination system deals with ongoing subscriptions and
unsubscriptions": the *maintenance* work.  This module models subscriptions
as first-class records with lifecycle timestamps so that maintenance work can
be measured and charged, and provides a :class:`SubscriptionTable` that
indexes active subscriptions by node and by filter.

:class:`FilterIndex` is the one answer to "which nodes want this event" (the
paper's I(p, e)): the table's oracle and the brokers'
:class:`~repro.pubsub.matching.MatchingEngine` both ask it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

from .events import Event, TOPIC_ATTRIBUTE
from .filters import Filter

__all__ = ["FilterIndex", "Subscription", "SubscriptionTable"]


class FilterIndex:
    """Filters keyed by the caller, matched against events.

    The filters are the judge; the topic index only prunes candidates, which
    is sound because a filter that pins topics matches no event of another
    topic.  Filters that pin no topic can match an event of any topic, so they
    are always candidates.  A ``ContentFilter`` pins ``str(value)`` but
    compares the raw value, so an event whose topic is not a string (or is
    absent) is judged against every entry.
    """

    def __init__(self) -> None:
        self._entries: Dict[Hashable, Tuple[str, Filter]] = {}
        self._by_topic: Dict[str, Set[Hashable]] = {}
        self._unpinned: Set[Hashable] = set()

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def add(self, key: Hashable, node_id: str, subscription_filter: Filter) -> None:
        """Index ``subscription_filter`` of ``node_id`` under a new ``key``."""
        self._entries[key] = (node_id, subscription_filter)
        topics = subscription_filter.topics
        for topic in topics:
            self._by_topic.setdefault(topic, set()).add(key)
        if not topics:
            self._unpinned.add(key)

    def remove(self, key: Hashable) -> None:
        """Drop the entry under ``key`` (no-op if absent)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        for topic in entry[1].topics:
            self._by_topic[topic].discard(key)
        self._unpinned.discard(key)

    def match(self, event: Event) -> Set[str]:
        """Node ids of the entries whose filter matches the event."""
        entries = self._entries
        topic = event.attribute(TOPIC_ATTRIBUTE)
        if isinstance(topic, str):
            candidates = [entries[key] for key in self._by_topic.get(topic, ())]
            candidates.extend(entries[key] for key in self._unpinned)
        else:
            candidates = entries.values()
        return {node_id for node_id, subscription_filter in candidates if subscription_filter.matches(event)}


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


class SubscriptionTable:
    """Tracks every subscription in the system, active and historical.

    The table is the ground truth used by:

    * the reliability oracle (who should deliver a given event);
    * the fairness accounting (how many filters a node has placed);
    * the maintenance-work experiments (rate of subscribe/unsubscribe per
      topic, §5.1).
    """

    def __init__(self) -> None:
        self._sequence = itertools.count()
        self._by_id: Dict[str, Subscription] = {}
        self._active_by_node: Dict[str, Set[str]] = {}
        #: Active subscriptions, keyed by subscription id.
        self._index = FilterIndex()
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
        self._index.add(subscription.subscription_id, node_id, subscription_filter)
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
        """Cancel every active subscription of a node (a node leaving for good)."""
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
        self._index.remove(subscription.subscription_id)

    # ------------------------------------------------------------- queries

    def interested_nodes(self, event: Event) -> List[str]:
        """Node ids whose active subscriptions match the event (sorted).

        This is the oracle answer for "who should deliver e"; the analysis
        layer compares protocol deliveries against it to compute reliability.
        """
        return sorted(self._index.match(event))

    def __len__(self) -> int:
        return sum(1 for subscription in self._by_id.values() if subscription.active)
