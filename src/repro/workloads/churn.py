"""Subscription churn workloads (§5.1).

Node churn (processes crashing and recovering) is injected by the fault
layer (:mod:`repro.faults`); this module covers the *other*
churn the paper worries about: the continuous stream of subscribe and
unsubscribe operations whose maintenance cost must be shared fairly.
:class:`SubscriptionChurnWorkload` keeps a configurable number of
"churning" nodes flipping their subscriptions on and off at per-topic rates,
so experiment S1 can measure who pays for popular-but-volatile topics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..pubsub.filters import TopicFilter
from ..sim.engine import Simulator
from .popularity import TopicPopularity

__all__ = ["SubscriptionChurnWorkload", "ChurnStats"]


@dataclass
class ChurnStats:
    """Counts of churn operations actually performed."""

    subscribes: int = 0
    unsubscribes: int = 0
    by_topic: Dict[str, int] = field(default_factory=dict)

    def record(self, topic: str, subscribed: bool) -> None:
        if subscribed:
            self.subscribes += 1
        else:
            self.unsubscribes += 1
        self.by_topic[topic] = self.by_topic.get(topic, 0) + 1


class SubscriptionChurnWorkload:
    """Drives ongoing subscribe/unsubscribe operations on a system.

    Parameters
    ----------
    system / simulator:
        The dissemination system under test and its engine.
    popularity:
        Topics and their churn *weights* — a topic's weight here is the rate
        at which nodes flip subscriptions to it, which the paper notes need
        not match its population size.
    churners:
        Node ids that participate in churn.
    operations_per_unit:
        Churn operations per simulated time unit across all churners.
    """

    def __init__(
        self,
        system,
        simulator: Simulator,
        popularity: TopicPopularity,
        churners: Sequence[str],
        operations_per_unit: float = 2.0,
        rng_name: str = "workload-sub-churn",
    ) -> None:
        if operations_per_unit <= 0:
            raise ValueError("operations_per_unit must be positive")
        if not churners:
            raise ValueError("at least one churner is required")
        self.system = system
        self.simulator = simulator
        self.popularity = popularity
        self.churners = list(churners)
        self.operations_per_unit = operations_per_unit
        self.stats = ChurnStats()
        self._rng_name = rng_name
        #: Current churn-driven subscriptions: (node, topic) -> subscribed?
        self._state: Dict[Tuple[str, str], bool] = {}

    def start(self, duration: float, start_at: float = 0.0) -> int:
        """Schedule churn operations over the window; returns how many."""
        total = int(self.operations_per_unit * duration)
        interval = duration / max(total, 1)
        for index in range(total):
            at = start_at + index * interval
            self.simulator.schedule_at(at, self._churn_once, label="workload-sub-churn")
        return total

    def _churn_once(self) -> None:
        rng = self.simulator.rng.stream(self._rng_name)
        node_id = rng.choice(self.churners)
        topic = self.popularity.sample(rng)
        key = (node_id, topic)
        currently_subscribed = self._state.get(key, False)
        subscription_filter = TopicFilter(topic)
        if currently_subscribed:
            self.system.unsubscribe(node_id, subscription_filter)
            self._state[key] = False
            self.stats.record(topic, subscribed=False)
        else:
            self.system.subscribe(node_id, subscription_filter)
            self._state[key] = True
            self.stats.record(topic, subscribed=True)

    def active_subscriptions(self) -> List[Tuple[str, str]]:
        """Currently churn-held (node, topic) subscriptions, sorted."""
        return sorted(key for key, subscribed in self._state.items() if subscribed)
