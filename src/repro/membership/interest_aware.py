"""Interest-aware view bias.

Section 4.2 notes that in an unstructured selective dissemination system an
"appropriate" neighbour could be one that *shares similar interests*.  The
:class:`InterestAwareMembership` component wraps any underlying membership
component and biases partner selection towards peers whose advertised topics
overlap the owner's subscriptions.  A mixing parameter keeps a fraction of
selections uniform so the overlay stays connected across interest groups
(pure interest clustering would partition the graph by topic).

The wrapper also answers :meth:`peers_for_topic`, which the topic-based fair
gossip uses to forward an event preferentially to peers that want it.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from ..sim.network import Message
from ..sim.node import Process
from .base import MembershipComponent

__all__ = ["InterestAwareMembership", "interest_aware_provider"]


class InterestAwareMembership(MembershipComponent):
    """Wraps a base membership component with interest-biased selection.

    Parameters
    ----------
    owner:
        The owning process.
    base:
        The underlying membership component that does the real work.
    topics_of:
        Callback returning the advertised topics of a peer id.  In the
        simulator this is backed by a shared subscription directory; a real
        deployment would learn the topics from descriptors.
    own_topics:
        Callback returning the owner's current topics.
    bias:
        Fraction of selections drawn from interest-overlapping peers
        (the rest stay uniform to preserve connectivity).
    """

    def __init__(
        self,
        owner: Process,
        base: MembershipComponent,
        topics_of: Callable[[str], Sequence[str]],
        own_topics: Callable[[], Sequence[str]],
        bias: float = 0.7,
    ) -> None:
        super().__init__(owner)
        if not 0.0 <= bias <= 1.0:
            raise ValueError("bias must be within [0, 1]")
        self.base = base
        self._topics_of = topics_of
        self._own_topics = own_topics
        self.bias = bias

    # ----------------------------------------------------------- delegation

    def bootstrap(self, seeds: Sequence[str]) -> None:
        self.base.bootstrap(seeds)

    def on_round(self) -> None:
        self.base.on_round()

    def handle(self, message: Message) -> bool:
        return self.base.handle(message)

    def known_peers(self) -> List[str]:
        return self.base.known_peers()

    # ------------------------------------------------------------ selection

    def _overlap(self, peer_id: str, own: Set[str]) -> int:
        if not own:
            return 0
        return len(own.intersection(self._topics_of(peer_id)))

    def select_partners(
        self, count: int, rng: random.Random, exclude: Iterable[str] = ()
    ) -> List[str]:
        excluded = set(exclude) | {self.owner.node_id}
        candidates = [peer for peer in self.base.known_peers() if peer not in excluded]
        if count >= len(candidates):
            return candidates
        own = set(self._own_topics())
        biased_quota = int(round(count * self.bias))
        overlapping = sorted(
            (peer for peer in candidates if self._overlap(peer, own) > 0),
            key=lambda peer: (-self._overlap(peer, own), peer),
        )
        selection: List[str] = []
        for peer in overlapping:
            if len(selection) >= biased_quota:
                break
            selection.append(peer)
        remaining = [peer for peer in candidates if peer not in selection]
        needed = count - len(selection)
        if needed > 0 and remaining:
            selection.extend(
                rng.sample(remaining, needed) if needed < len(remaining) else remaining
            )
        return selection[:count]

    def peers_for_topic(self, topic: str, count: int, rng: random.Random) -> List[str]:
        """Known peers subscribed to ``topic`` (up to ``count``, random order)."""
        interested = [
            peer
            for peer in self.base.known_peers()
            if topic in set(self._topics_of(peer))
        ]
        if count >= len(interested):
            return interested
        return rng.sample(interested, count)


def interest_aware_provider(
    base_provider: Callable[[Process], MembershipComponent],
    topics_of: Callable[[str], Sequence[str]],
    own_topics_factory: Callable[[Process], Callable[[], Sequence[str]]],
    bias: float = 0.7,
):
    """Return a provider building interest-aware wrappers around ``base_provider``."""

    def provider(owner: Process) -> InterestAwareMembership:
        return InterestAwareMembership(
            owner,
            base=base_provider(owner),
            topics_of=topics_of,
            own_topics=own_topics_factory(owner),
            bias=bias,
        )

    return provider
