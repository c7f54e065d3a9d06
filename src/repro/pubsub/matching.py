"""The brokers' matching engine: map an event to the set of interested clients.

Gossip nodes do not need an index (each node only evaluates its own
``ISINTERESTED``), but a broker matches against every client's filters.
:class:`MatchingEngine` keeps one entry per ``(node, filter_id)`` in a
:class:`~repro.pubsub.subscriptions.FilterIndex`, the same index behind the
analysis layer's oracle
(:meth:`~repro.pubsub.subscriptions.SubscriptionTable.interested_nodes`), so
a broker and the oracle cannot disagree on who wants an event.
"""

from __future__ import annotations

from typing import Set

from .events import Event
from .filters import Filter
from .subscriptions import FilterIndex

__all__ = ["MatchingEngine"]


class MatchingEngine:
    """One entry per ``(node, filter_id)``; the first filter added under it stays."""

    def __init__(self) -> None:
        self._index = FilterIndex()

    def add(self, node_id: str, subscription_filter: Filter) -> None:
        """Register a filter for a node (no-op if an equal one is registered)."""
        key = (node_id, subscription_filter.filter_id)
        if key not in self._index:
            self._index.add(key, node_id, subscription_filter)

    def remove(self, node_id: str, subscription_filter: Filter) -> None:
        """Remove a filter for a node (no-op if absent)."""
        self._index.remove((node_id, subscription_filter.filter_id))

    def match(self, event: Event) -> Set[str]:
        """All node ids interested in the event."""
        return self._index.match(event)
