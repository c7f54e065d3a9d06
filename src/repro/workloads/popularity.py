"""Topic popularity models.

Section 5.1 points out that "not every topic has the same popularity and
even the rate at which processes subscribe and unsubscribe can be different
for two distinct topics".  The workload generators therefore draw both the
subscription interest and the publication traffic from configurable
popularity distributions — uniform for control experiments, Zipf for the
realistic skewed case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..sim.rng import weighted_choice, zipf_weights

__all__ = ["TopicPopularity"]


@dataclass(frozen=True)
class TopicPopularity:
    """A fixed set of topics with a popularity weight per topic.

    ``topics[0]`` is the most popular.  Use :meth:`uniform` or :meth:`zipf`
    to construct; :meth:`sample` draws one topic according to the weights.
    """

    topics: Sequence[str]
    weights: Sequence[float]

    def __post_init__(self) -> None:
        if not self.topics:
            raise ValueError("at least one topic is required")
        if len(self.topics) != len(self.weights):
            raise ValueError("topics and weights must have the same length")
        if any(weight < 0 for weight in self.weights):
            raise ValueError("weights must be non-negative")
        if sum(self.weights) <= 0:
            raise ValueError("weights must not all be zero")

    # --------------------------------------------------------- constructors

    @staticmethod
    def uniform(topic_count: int, prefix: str = "topic") -> "TopicPopularity":
        """Equally popular topics ``{prefix}-00 ...``."""
        topics = [f"{prefix}-{index:02d}" for index in range(topic_count)]
        return TopicPopularity(topics=topics, weights=[1.0] * topic_count)

    @staticmethod
    def zipf(topic_count: int, exponent: float = 1.0, prefix: str = "topic") -> "TopicPopularity":
        """Zipf-distributed popularity (rank 1 = most popular)."""
        topics = [f"{prefix}-{index:02d}" for index in range(topic_count)]
        return TopicPopularity(topics=topics, weights=zipf_weights(topic_count, exponent))

    @staticmethod
    def hierarchy(
        roots: int, children_per_root: int, exponent: float = 1.0, prefix: str = "topic"
    ) -> "TopicPopularity":
        """Two-level hierarchical topics ``root/child`` with Zipf weights.

        Used by the data-aware multicast experiments, which need a topic
        hierarchy rather than a flat list.
        """
        names: List[str] = []
        for root_index in range(roots):
            for child_index in range(children_per_root):
                names.append(f"{prefix}-{root_index:02d}/sub-{child_index:02d}")
        return TopicPopularity(topics=names, weights=zipf_weights(len(names), exponent))

    # -------------------------------------------------------------- queries

    def sample(self, rng: random.Random) -> str:
        """Draw one topic according to popularity."""
        return weighted_choice(rng, list(self.topics), list(self.weights))

    def sample_many(self, rng: random.Random, count: int, distinct: bool = False) -> List[str]:
        """Draw ``count`` topics; with ``distinct=True`` no topic repeats."""
        if not distinct:
            return [self.sample(rng) for _ in range(count)]
        if count >= len(self.topics):
            return list(self.topics)
        chosen: List[str] = []
        remaining = list(self.topics)
        remaining_weights = list(self.weights)
        for _ in range(count):
            pick = weighted_choice(rng, remaining, remaining_weights)
            index = remaining.index(pick)
            remaining.pop(index)
            remaining_weights.pop(index)
            chosen.append(pick)
        return chosen
