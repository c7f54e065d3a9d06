"""Event buffers and the ``SELECTEVENTS(N)`` strategies of Figure 4.

Every gossip node keeps a bounded buffer of events it has recently seen
(the paper's ``events`` set) plus the set of event ids it has already
delivered (the ``delivered`` set).  Each round the node picks at most ``N``
events from the buffer to put into the outgoing gossip message; the
*selection strategy* decides which ones.  The strategy matters both for
dissemination speed (prefer young events) and for fairness (a selfish node
can bias selection towards stale events to inflate apparent contribution,
challenge 6 of §5.2 — see :mod:`repro.core.bias`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import groupby, takewhile
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional

from ..pubsub.events import Event

__all__ = ["BufferedEvent", "EventBuffer", "SELECTION_STRATEGIES"]


@dataclass(slots=True)
class BufferedEvent:
    """An event held in a node's gossip buffer with local bookkeeping.

    ``arrived_round`` is the buffer's round counter when the event came in:
    rounds held is the counter's distance from it, so ageing rewrites no entry.
    """

    event: Event
    arrived_round: int
    forwarded_count: int = 0


#: Names of the built-in selection strategies.
SELECTION_STRATEGIES = ("random", "newest", "oldest", "least-forwarded")

_ARRIVAL = attrgetter("arrived_round")
_FORWARDS_THEN_ARRIVAL = attrgetter("forwarded_count", "arrived_round")


def _best(
    ranked: Iterable[BufferedEvent], rank: Callable, count: int, rng: random.Random
) -> List[BufferedEvent]:
    """The first ``count`` of ``ranked`` (best first), ties at the cut broken at random.

    Neighbours of equal ``rank`` form a tie group: groups are taken whole while they
    fit, the one that straddles the cut is sampled, and the walk stops right behind it.
    """
    chosen: List[BufferedEvent] = []
    for _, tied in groupby(ranked, rank):
        group, need = list(tied), count - len(chosen)
        if len(group) >= need:
            return chosen + (group if len(group) == need else rng.sample(group, need))
        chosen += group
    return chosen


class EventBuffer:
    """Bounded buffer of recently seen events, kept in arrival order.

    Entries of one round are neighbours (a *round group*), oldest group first, so
    a round costs what it expires, evicts and selects, not what the buffer holds.

    Parameters
    ----------
    capacity:
        Maximum number of events held; when full, the event that has been
        held for the most rounds is evicted (lpbcast-style purging).
    max_rounds:
        Events held longer than this many rounds are garbage-collected at
        the start of each round, bounding both memory and the tail of
        redundant forwarding.
    """

    def __init__(self, capacity: int = 200, max_rounds: int = 20) -> None:
        if capacity <= 0 or max_rounds <= 0:
            raise ValueError("capacity and max_rounds must be positive")
        self.capacity = capacity
        self.max_rounds = max_rounds
        self._entries: Dict[str, BufferedEvent] = {}
        self._round = 0
        self.evictions = 0
        self.expirations = 0

    # ------------------------------------------------------------ mutation

    def add(self, event: Event) -> bool:
        """Insert an event; returns ``False`` if it was already buffered."""
        if event.event_id in self._entries:
            return False
        if len(self._entries) >= self.capacity:
            self._evict_one()
        self._entries[event.event_id] = BufferedEvent(event, self._round)
        return True

    def _evict_one(self) -> None:
        """Drop from the oldest round group the most forwarded entry (largest id on ties)."""
        _, group = next(groupby(self._entries.values(), _ARRIVAL))
        victim = max(group, key=lambda entry: (entry.forwarded_count, entry.event.event_id))
        del self._entries[victim.event.event_id]
        self.evictions += 1

    def start_round(self) -> int:
        """Age the buffer by one round and expire old entries; returns expirations."""
        self._round += 1
        entries, horizon = self._entries, self._round - self.max_rounds
        expired = list(takewhile(lambda event_id: entries[event_id].arrived_round < horizon, entries))
        for event_id in expired:
            del entries[event_id]
        self.expirations += len(expired)
        return len(expired)

    def mark_forwarded(self, event_ids: Iterable[str]) -> None:
        """Record that the given events were put into an outgoing message."""
        for event_id in event_ids:
            entry = self._entries.get(event_id)
            if entry is not None:
                entry.forwarded_count += 1

    def remove(self, event_id: str) -> bool:
        """Drop one event from the buffer."""
        return self._entries.pop(event_id, None) is not None

    # ------------------------------------------------------------ selection

    def select(
        self, count: int, rng: random.Random, strategy: str = "random"
    ) -> List[Event]:
        """Pick up to ``count`` events according to ``strategy``.

        Entries of equal rank that straddle the cut are sampled uniformly (a
        fixed tie-break would starve whichever events sort last when more than
        ``count`` tie, as when a publisher injects a burst within one round);
        only that sample draws from ``rng``.

        Strategies
        ----------
        ``random``
            Uniform sample — the baseline of Figure 4.
        ``newest``
            Fewest rounds held first; spreads fresh events fastest.
        ``oldest``
            Most rounds held first.
        ``least-forwarded``
            Events this node has forwarded the fewest times first; maximises
            the marginal usefulness of each forwarded byte.
        """
        if count <= 0 or not self._entries:
            return []
        entries = self._entries.values()
        if strategy == "random":
            chosen = _best(entries, lambda entry: None, count, rng)  # all tie
        elif strategy == "newest":
            chosen = _best(reversed(entries), _ARRIVAL, count, rng)
        elif strategy == "oldest":
            chosen = _best(entries, _ARRIVAL, count, rng)
        elif strategy == "least-forwarded":
            ranked = sorted(
                entries, key=lambda entry: (entry.forwarded_count, -entry.arrived_round)
            )
            chosen = _best(ranked, _FORWARDS_THEN_ARRIVAL, count, rng)
        else:
            raise ValueError(
                f"unknown selection strategy {strategy!r}; expected one of {SELECTION_STRATEGIES}"
            )
        return [entry.event for entry in chosen]

    # -------------------------------------------------------------- queries

    def __contains__(self, event_id: str) -> bool:
        return event_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def event_ids(self) -> List[str]:
        """Ids of buffered events, sorted."""
        return sorted(self._entries)

    def events(self) -> List[Event]:
        """Buffered events, sorted by id."""
        return [self._entries[event_id].event for event_id in sorted(self._entries)]

    def get(self, event_id: str) -> Optional[Event]:
        """Return the buffered event with this id, if present."""
        entry = self._entries.get(event_id)
        return entry.event if entry is not None else None
