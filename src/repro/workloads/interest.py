"""Interest assignment: which node subscribes to what.

The fairness question only becomes interesting when interests differ across
processes (§4.2: "the interest of processes may exhibit big differences").
Three assignment models are provided:

* :class:`UniformInterest` — every node subscribes to the same number of
  topics drawn uniformly; the control case in which classic gossip is
  already fair.
* :class:`ZipfInterest` — per-node subscription counts and topic choices
  both follow skewed distributions: a few nodes subscribe to many popular
  topics, most nodes to one or two.
* :class:`CommunityInterest` — nodes belong to communities, each focused on
  a subset of topics with a small probability of out-of-community interests;
  models the clustered interest structure real deployments show.

For expressive (content-based) experiments, :class:`AttributeInterest`
assigns content filters over a synthetic attribute space instead of topics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..pubsub.filters import AttributeCondition, ContentFilter, Filter, TopicFilter, filter_from_dict
from .popularity import TopicPopularity

__all__ = [
    "InterestAssignment",
    "UniformInterest",
    "ZipfInterest",
    "CommunityInterest",
    "AttributeInterest",
]


@dataclass(frozen=True)
class InterestAssignment:
    """The result of an interest model: filters per node."""

    filters_by_node: Dict[str, Tuple[Filter, ...]]

    def filters_of(self, node_id: str) -> Tuple[Filter, ...]:
        """Filters assigned to one node (empty tuple if none)."""
        return self.filters_by_node.get(node_id, ())

    def apply(self, system, callbacks: Sequence = ()) -> None:
        """Subscribe every node on a dissemination system accordingly."""
        for node_id, filters in sorted(self.filters_by_node.items()):
            for subscription_filter in filters:
                system.subscribe(node_id, subscription_filter, callbacks=callbacks)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form; inverse of :meth:`from_dict`.

        Filters are polymorphic (``filter_from_dict``'s ``kind`` tag), which
        the annotation-driven :mod:`repro.jsonio` walker does not express.
        """
        return {
            "filters_by_node": {
                node_id: [subscription_filter.to_dict() for subscription_filter in filters]
                for node_id, filters in sorted(self.filters_by_node.items())
            }
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "InterestAssignment":
        """Rebuild an assignment from :meth:`to_dict` output."""
        filters_by_node = {
            node_id: tuple(filter_from_dict(entry) for entry in filters)
            for node_id, filters in payload["filters_by_node"].items()
        }
        return InterestAssignment(filters_by_node=filters_by_node)


class UniformInterest:
    """Every node subscribes to ``topics_per_node`` uniformly chosen topics."""

    def __init__(self, popularity: TopicPopularity, topics_per_node: int = 2) -> None:
        if topics_per_node <= 0:
            raise ValueError("topics_per_node must be positive")
        self.popularity = popularity
        self.topics_per_node = topics_per_node

    def assign(self, node_ids: Sequence[str], rng: random.Random) -> InterestAssignment:
        """Build the per-node filter assignment."""
        topics = list(self.popularity.topics)
        filters: Dict[str, Tuple[Filter, ...]] = {}
        for node_id in node_ids:
            count = min(self.topics_per_node, len(topics))
            chosen = rng.sample(topics, count)
            filters[node_id] = tuple(TopicFilter(topic) for topic in sorted(chosen))
        return InterestAssignment(filters_by_node=filters)


class ZipfInterest:
    """Skewed interest: popular topics attract most subscriptions.

    Each node draws its subscription count from a truncated geometric-like
    distribution between ``min_topics`` and ``max_topics`` and then picks
    that many distinct topics according to topic popularity.
    """

    def __init__(
        self,
        popularity: TopicPopularity,
        min_topics: int = 1,
        max_topics: int = 8,
        heavy_tail: float = 0.6,
    ) -> None:
        if min_topics <= 0 or max_topics < min_topics:
            raise ValueError("require 0 < min_topics <= max_topics")
        if not 0.0 < heavy_tail < 1.0:
            raise ValueError("heavy_tail must be within (0, 1)")
        self.popularity = popularity
        self.min_topics = min_topics
        self.max_topics = max_topics
        self.heavy_tail = heavy_tail

    def _subscription_count(self, rng: random.Random) -> int:
        count = self.min_topics
        while count < self.max_topics and rng.random() < self.heavy_tail:
            count += 1
        return count

    def assign(self, node_ids: Sequence[str], rng: random.Random) -> InterestAssignment:
        """Build the per-node filter assignment."""
        filters: Dict[str, Tuple[Filter, ...]] = {}
        for node_id in node_ids:
            count = self._subscription_count(rng)
            chosen = self.popularity.sample_many(rng, count, distinct=True)
            filters[node_id] = tuple(TopicFilter(topic) for topic in sorted(chosen))
        return InterestAssignment(filters_by_node=filters)


class CommunityInterest:
    """Clustered interest: communities of nodes share topic sets."""

    def __init__(
        self,
        popularity: TopicPopularity,
        communities: int = 4,
        topics_per_node: int = 3,
        crossover_probability: float = 0.1,
    ) -> None:
        if communities <= 0 or topics_per_node <= 0:
            raise ValueError("communities and topics_per_node must be positive")
        if not 0.0 <= crossover_probability <= 1.0:
            raise ValueError("crossover_probability must be within [0, 1]")
        self.popularity = popularity
        self.communities = communities
        self.topics_per_node = topics_per_node
        self.crossover_probability = crossover_probability

    def assign(self, node_ids: Sequence[str], rng: random.Random) -> InterestAssignment:
        """Build the per-node filter assignment."""
        topics = list(self.popularity.topics)
        community_topics: List[List[str]] = [[] for _ in range(self.communities)]
        for index, topic in enumerate(topics):
            community_topics[index % self.communities].append(topic)
        filters: Dict[str, Tuple[Filter, ...]] = {}
        for index, node_id in enumerate(node_ids):
            community = index % self.communities
            own = community_topics[community] or topics
            count = min(self.topics_per_node, len(own))
            chosen = set(rng.sample(own, count))
            if rng.random() < self.crossover_probability:
                chosen.add(rng.choice(topics))
            filters[node_id] = tuple(TopicFilter(topic) for topic in sorted(chosen))
        return InterestAssignment(filters_by_node=filters)


class AttributeInterest:
    """Content-based interest over a synthetic attribute space.

    Events carry ``category`` (categorical) and ``level`` (integer 0..9)
    attributes in addition to an optional topic; each node gets
    ``filters_per_node`` conjunctive filters such as ``category == "metals"
    AND level >= 6``.  This exercises the expressive selection path of §5.2
    where grouping nodes by interest is not possible.
    """

    def __init__(
        self,
        categories: Sequence[str] = ("metals", "energy", "crops", "tech"),
        filters_per_node: int = 2,
        level_range: Tuple[int, int] = (0, 9),
    ) -> None:
        if not categories:
            raise ValueError("at least one category is required")
        if filters_per_node <= 0:
            raise ValueError("filters_per_node must be positive")
        self.categories = list(categories)
        self.filters_per_node = filters_per_node
        self.level_range = level_range

    def random_event_attributes(self, rng: random.Random) -> Dict[str, object]:
        """Attributes for one synthetic event drawn from the same space."""
        low, high = self.level_range
        return {
            "category": rng.choice(self.categories),
            "level": rng.randint(low, high),
        }

    def assign(self, node_ids: Sequence[str], rng: random.Random) -> InterestAssignment:
        """Build the per-node content-filter assignment."""
        low, high = self.level_range
        filters: Dict[str, Tuple[Filter, ...]] = {}
        for node_id in node_ids:
            node_filters: List[Filter] = []
            for index in range(self.filters_per_node):
                category = rng.choice(self.categories)
                threshold = rng.randint(low, high)
                node_filters.append(
                    ContentFilter(
                        conditions=(
                            AttributeCondition("category", "==", category),
                            AttributeCondition("level", ">=", threshold),
                        ),
                        name=f"{node_id}-f{index}",
                    )
                )
            filters[node_id] = tuple(node_filters)
        return InterestAssignment(filters_by_node=filters)
