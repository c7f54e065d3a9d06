"""Lpbcast-style membership (reference [11] of the paper).

Lightweight probabilistic broadcast piggybacks membership information on the
gossip messages themselves: every gossip message carries a few node
descriptors (recently seen subscribers), and receivers merge them into their
partial view, truncating uniformly at random back to the view capacity.
There is no dedicated shuffle exchange; the dissemination traffic *is* the
membership traffic.

The component exposes :meth:`digest_for_gossip` so the dissemination protocol
can attach a membership digest to outgoing gossip messages and
:meth:`absorb_digest` so it can merge digests found on incoming ones.  A slow
standalone refresh round is also provided for protocols that gossip rarely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..sim.network import Message
from ..sim.node import Process
from .base import MembershipComponent
from .views import Descriptor, PartialView

__all__ = ["LpbcastMembership", "lpbcast_provider", "MembershipDigest"]

DIGEST_MESSAGE = MembershipComponent.MESSAGE_PREFIX + "lpbcast.digest"


@dataclass(frozen=True)
class MembershipDigest:
    """Node descriptors piggybacked on gossip traffic, ``(node_id, age)`` pairs."""

    descriptors: Tuple[Descriptor, ...]


class LpbcastMembership(MembershipComponent):
    """Per-node lpbcast-style membership component."""

    def __init__(
        self,
        owner: Process,
        view_size: int = 25,
        digest_size: int = 4,
        standalone_refresh: bool = True,
    ) -> None:
        super().__init__(owner)
        if view_size <= 0 or digest_size <= 0:
            raise ValueError("view_size and digest_size must be positive")
        self.view = PartialView(owner.node_id, capacity=view_size)
        self.digest_size = digest_size
        self.standalone_refresh = standalone_refresh
        #: Every gossip message and refresh round draws, so it is bound up front.
        self._rng = owner.simulator.rng.stream(f"lpbcast:{owner.node_id}")
        self.digests_sent = 0
        self.digests_absorbed = 0

    def bootstrap(self, seeds: Sequence[str]) -> None:
        for seed in seeds:
            self.view.add((seed, 0))

    # -------------------------------------------------- piggybacked digests

    def digest_for_gossip(self) -> MembershipDigest:
        """Descriptors to attach to the next outgoing gossip message."""
        sample = self.view.sample_descriptors(self._rng, self.digest_size - 1)
        self.digests_sent += 1
        return MembershipDigest(tuple(sample) + ((self.owner.node_id, 0),))

    def absorb_digest(self, digest: MembershipDigest) -> None:
        """Merge a digest found on an incoming gossip message."""
        self.digests_absorbed += 1
        for node_id, _ in digest.descriptors:
            if node_id == self.owner.node_id:
                continue
            if len(self.view) >= self.view.capacity and node_id not in self.view:
                # Random truncation, as in lpbcast: evict a uniformly chosen
                # entry to make room, keeping the view well mixed.
                victims = self.view.node_ids()
                if victims:
                    self.view.remove(self._rng.choice(victims))
            # A sighting through a digest is a fresh one.
            self.view.add((node_id, 0))

    # --------------------------------------------------- standalone traffic

    def on_round(self) -> None:
        """Optionally push a digest to one random peer (for quiet systems)."""
        if not self.standalone_refresh:
            return
        self.view.age_all()
        targets = self.view.sample(self._rng, 1)
        if not targets:
            return
        digest = self.digest_for_gossip()
        self.send(targets[0], DIGEST_MESSAGE, digest, len(digest.descriptors))

    def handle(self, message: Message) -> bool:
        if message.kind == DIGEST_MESSAGE:
            self.absorb_digest(message.payload)
            return True
        return False

    # -------------------------------------------------------------- queries

    def select_partners(
        self, count: int, rng: random.Random, exclude: Iterable[str] = ()
    ) -> List[str]:
        return self.view.sample(rng, count, exclude=exclude)

    def known_peers(self) -> List[str]:
        return self.view.node_ids()

    def notify_left(self, node_id: str) -> None:
        self.view.remove(node_id)


def lpbcast_provider(view_size: int = 25, digest_size: int = 4, standalone_refresh: bool = True):
    """Return a provider building :class:`LpbcastMembership` components."""

    def provider(owner: Process) -> LpbcastMembership:
        return LpbcastMembership(
            owner,
            view_size=view_size,
            digest_size=digest_size,
            standalone_refresh=standalone_refresh,
        )

    return provider
