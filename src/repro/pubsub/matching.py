"""Matching engines: map an event to the set of interested subscribers.

Two indexes are provided:

* :class:`TopicIndex` — constant-time lookup for topic-based selection.
* :class:`CountingContentIndex` — the classic counting algorithm for
  content-based matching: each equality/range condition is indexed by
  attribute, an event increments a per-filter counter for every condition it
  satisfies, and filters whose counter reaches their condition count match.

The :class:`MatchingEngine` front-end routes filters to the appropriate index
and is what brokers use.  Gossip nodes do not need an index — each node only
evaluates its own ``ISINTERESTED`` — but the broker baseline matches against
thousands of foreign filters, where the index matters.  The analysis layer's
oracle does not come through here: it asks
:meth:`~repro.pubsub.subscriptions.SubscriptionTable.interested_nodes`, which
prunes candidates with the table's own topic index and lets the filters judge.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .events import Event, TOPIC_ATTRIBUTE
from .filters import AttributeCondition, ContentFilter, Filter, TopicFilter

__all__ = ["TopicIndex", "CountingContentIndex", "MatchingEngine"]


class TopicIndex:
    """Exact-topic index: ``topic -> {(node, filter_id)}``."""

    def __init__(self) -> None:
        self._by_topic: Dict[str, Set[Tuple[str, str]]] = defaultdict(set)

    def add(self, node_id: str, topic_filter: TopicFilter) -> None:
        """Register a node's topic filter."""
        self._by_topic[topic_filter.topic].add((node_id, topic_filter.filter_id))

    def remove(self, node_id: str, topic_filter: TopicFilter) -> None:
        """Remove a previously registered topic filter (no-op if absent)."""
        self._by_topic.get(topic_filter.topic, set()).discard((node_id, topic_filter.filter_id))

    def match(self, event: Event) -> Set[str]:
        """Node ids subscribed to the event's topic."""
        topic = event.attribute(TOPIC_ATTRIBUTE)
        if topic is None:
            return set()
        return {node_id for node_id, _ in self._by_topic.get(str(topic), ())}

    def subscribers(self, topic: str) -> Set[str]:
        """Node ids subscribed to ``topic``."""
        return {node_id for node_id, _ in self._by_topic.get(topic, ())}

    def topic_count(self) -> int:
        """Number of topics with at least one subscriber."""
        return sum(1 for entries in self._by_topic.values() if entries)

    def filter_count(self) -> int:
        """Number of (node, filter) registrations currently indexed."""
        return sum(len(entries) for entries in self._by_topic.values())


@dataclass
class _IndexedFilter:
    node_id: str
    content_filter: ContentFilter
    condition_count: int


class CountingContentIndex:
    """Counting-based content filter index.

    Filters with zero conditions (match-all) are kept in a separate set since
    they match every event by definition.
    """

    def __init__(self) -> None:
        self._filters: Dict[Tuple[str, str], _IndexedFilter] = {}
        self._by_attribute: Dict[str, List[Tuple[Tuple[str, str], AttributeCondition]]] = defaultdict(list)
        self._match_all: Set[Tuple[str, str]] = set()

    def add(self, node_id: str, content_filter: ContentFilter) -> None:
        """Register a node's content filter."""
        key = (node_id, content_filter.filter_id)
        if key in self._filters:
            return
        entry = _IndexedFilter(
            node_id=node_id,
            content_filter=content_filter,
            condition_count=len(content_filter.conditions),
        )
        self._filters[key] = entry
        if not content_filter.conditions:
            self._match_all.add(key)
            return
        for condition in content_filter.conditions:
            self._by_attribute[condition.attribute].append((key, condition))

    def remove(self, node_id: str, content_filter: ContentFilter) -> None:
        """Remove a previously registered content filter (no-op if absent)."""
        key = (node_id, content_filter.filter_id)
        if key not in self._filters:
            return
        del self._filters[key]
        self._match_all.discard(key)
        for attribute in {condition.attribute for condition in content_filter.conditions}:
            self._by_attribute[attribute] = [
                (entry_key, condition)
                for entry_key, condition in self._by_attribute[attribute]
                if entry_key != key
            ]

    def match(self, event: Event) -> Set[str]:
        """Node ids whose content filters match the event."""
        satisfied: Dict[Tuple[str, str], int] = defaultdict(int)
        for attribute in event.attributes:
            for key, condition in self._by_attribute.get(attribute, ()):
                if condition.holds_for(event):
                    satisfied[key] += 1
        matched = {
            self._filters[key].node_id
            for key, count in satisfied.items()
            if key in self._filters and count >= self._filters[key].condition_count
        }
        matched.update(self._filters[key].node_id for key in self._match_all)
        return matched

    def filter_count(self) -> int:
        """Number of indexed filters."""
        return len(self._filters)


class MatchingEngine:
    """Routes filters to the right index and matches events against all of them.

    Filters that are neither :class:`TopicFilter` nor :class:`ContentFilter`
    (composites, custom predicates) fall back to linear evaluation, so the
    engine is complete even if slower for exotic filters.
    """

    def __init__(self) -> None:
        self.topic_index = TopicIndex()
        self.content_index = CountingContentIndex()
        self._fallback: Dict[Tuple[str, str], Tuple[str, Filter]] = {}

    def add(self, node_id: str, subscription_filter: Filter) -> None:
        """Register a filter for a node."""
        if isinstance(subscription_filter, TopicFilter):
            self.topic_index.add(node_id, subscription_filter)
        elif isinstance(subscription_filter, ContentFilter):
            self.content_index.add(node_id, subscription_filter)
        else:
            key = (node_id, subscription_filter.filter_id)
            self._fallback[key] = (node_id, subscription_filter)

    def remove(self, node_id: str, subscription_filter: Filter) -> None:
        """Remove a filter for a node (no-op if absent)."""
        if isinstance(subscription_filter, TopicFilter):
            self.topic_index.remove(node_id, subscription_filter)
        elif isinstance(subscription_filter, ContentFilter):
            self.content_index.remove(node_id, subscription_filter)
        else:
            self._fallback.pop((node_id, subscription_filter.filter_id), None)

    def match(self, event: Event) -> Set[str]:
        """All node ids interested in the event."""
        interested = self.topic_index.match(event)
        interested |= self.content_index.match(event)
        for node_id, subscription_filter in self._fallback.values():
            if subscription_filter.matches(event):
                interested.add(node_id)
        return interested

    def registered_filter_count(self) -> int:
        """Total filters across the three stores."""
        return (
            self.topic_index.filter_count()
            + self.content_index.filter_count()
            + len(self._fallback)
        )
