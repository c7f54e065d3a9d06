"""SplitStream-style striping over Scribe trees (reference [7], §3.1).

SplitStream's goal is *load balancing*: instead of one multicast tree per
topic (where interior nodes carry all the forwarding load), the content is
split into ``k`` stripes, each disseminated over its own tree rooted at a
different rendezvous, so that the forwarding load of a topic is spread over
many different interior node sets.

The paper's point (§3.1–3.2) is that this balances *load* but not
*fairness*: the interior nodes of every stripe tree still forward events for
subscribers of topics they do not care about — there are simply more such
nodes, each carrying a smaller share.  Benchmark S2 uses this system to show
a high contribution-Jain (good load balance) together with a poor
contribution/benefit fairness.

Implementation: each topic ``t`` maps to stripe routing topics ``t#0 ...
t#k-1``; a subscriber joins every stripe tree, and a publisher assigns each
event to a stripe round-robin, so over time all stripes carry an equal share
of the topic's traffic.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..pubsub.events import Event
from ..pubsub.filters import Filter
from ..pubsub.interfaces import DeliveryCallback
from .scribe import ScribeSystem

__all__ = ["SplitStreamSystem"]


class SplitStreamSystem(ScribeSystem):
    """Scribe with per-topic striping across multiple trees.

    Takes :class:`~repro.dht.scribe.ScribeSystem`'s arguments plus
    ``stripes``, the number of trees per topic.
    """

    name = "splitstream"
    topic_only = "SplitStream"

    def __init__(
        self, simulator, network, node_ids: Sequence[str], stripes: int = 4, **shared_state
    ) -> None:
        if stripes <= 0:
            raise ValueError("stripes must be positive")
        super().__init__(simulator, network, node_ids, **shared_state)
        self.stripes = stripes
        self._stripe_counter: Dict[str, int] = {}

    # ------------------------------------------------------------ helpers

    def stripe_topics(self, topic: str) -> list:
        """Routing topics for the stripes of ``topic``."""
        return [f"{topic}#{stripe}" for stripe in range(self.stripes)]

    def _next_stripe(self, topic: str) -> str:
        index = self._stripe_counter.get(topic, 0)
        self._stripe_counter[topic] = index + 1
        return f"{topic}#{index % self.stripes}"

    # ------------------------------------------------------------- §2 API

    def subscribe(
        self,
        node_id: str,
        subscription_filter: Filter,
        callbacks: Sequence[DeliveryCallback] = (),
    ) -> None:
        topic = self._topic_of(subscription_filter)
        # Join every stripe tree; interest is still keyed on the real topic
        # (and the ledger counts one filter, however many stripe trees back it).
        for routing_topic in self.stripe_topics(topic):
            self.nodes[node_id].subscribe_topic(topic, routing_topic=routing_topic)
        self._subscribed(node_id, subscription_filter, callbacks)

    def unsubscribe(self, node_id: str, subscription_filter: Filter) -> None:
        topic = self._topic_of(subscription_filter)
        for routing_topic in self.stripe_topics(topic):
            self.nodes[node_id].unsubscribe_topic(topic, routing_topic=routing_topic)
        self._unsubscribed(node_id, subscription_filter)

    def publish(self, publisher_id: str, event: Optional[Event] = None, **attributes) -> Event:
        event = self._stamp(publisher_id, event, attributes)
        self.nodes[publisher_id].publish(event, routing_topic=self._next_stripe(event.topic))
        return event
