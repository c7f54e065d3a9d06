"""Domain-scoped membership: keep peer sampling inside the local domain.

The topology layer's first invariant is that *gossip stays intra-domain* —
cross-domain traffic is the bridge router's job.  Rather than teaching every
membership service about domains, :class:`DomainScopedMembership` wraps any
:class:`~repro.membership.base.MembershipComponent` and filters its surface:

* ``select_partners`` excludes every node outside the owner's domain (the
  inner component's own selection logic and RNG usage are otherwise
  untouched);
* ``bootstrap`` drops out-of-domain seeds and deterministically adds the
  owner's ring neighbours (previous/next in the sorted domain member list),
  so small domains stay connected even when the global seed sample missed
  them entirely — without a single extra RNG draw;
* ``known_peers`` reports the intra-domain view.

Because bootstrap seeds and shuffle partners are all intra-domain, a view
protocol like CYCLON never learns a foreign descriptor in the first place;
the filters are a guarantee, not a crutch.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence

from ..membership.base import MembershipComponent, MembershipProvider
from ..sim.network import Message
from ..sim.node import Process
from .domains import DomainMap

__all__ = ["DomainScopedMembership", "domain_scoped_provider"]


class DomainScopedMembership(MembershipComponent):
    """Wrap a membership component so its peers stay intra-domain."""

    def __init__(self, owner: Process, inner: MembershipComponent, domain_map: DomainMap) -> None:
        super().__init__(owner)
        self.inner = inner
        self._domain_map = domain_map
        self.domain = domain_map.domain(owner.node_id)
        self._foreign = (
            frozenset() if self.domain is None else domain_map.foreign_to(self.domain)
        )

    # ---------------------------------------------------------- delegation

    def bootstrap(self, seeds: Sequence[str]) -> None:
        filtered = [seed for seed in seeds if seed not in self._foreign]
        for neighbour in self._ring_neighbours():
            if neighbour not in filtered:
                filtered.append(neighbour)
        self.inner.bootstrap(filtered)

    def on_round(self) -> None:
        self.inner.on_round()

    def handle(self, message: Message) -> bool:
        return self.inner.handle(message)

    def select_partners(
        self, count: int, rng: random.Random, exclude: Iterable[str] = ()
    ) -> List[str]:
        excluded = self._foreign.union(exclude) if exclude else self._foreign
        partners = self.inner.select_partners(count, rng, exclude=excluded)
        # The exclusion list already guarantees intra-domain partners for
        # every in-tree component; the filter is a final safety net against
        # components that treat ``exclude`` as advisory.
        return [peer for peer in partners if peer not in self._foreign]

    def known_peers(self) -> List[str]:
        return [peer for peer in self.inner.known_peers() if peer not in self._foreign]

    # ------------------------------------------------------------- helpers

    def _ring_neighbours(self) -> List[str]:
        """Previous/next members on the sorted intra-domain ring (no RNG)."""
        if self.domain is None:
            return []
        members = self._domain_map.members[self.domain]
        if len(members) < 2:
            return []
        index = members.index(self.owner.node_id)
        previous = members[index - 1]
        following = members[(index + 1) % len(members)]
        neighbours = [previous]
        if following != previous:
            neighbours.append(following)
        return neighbours


def domain_scoped_provider(
    inner: MembershipProvider, domain_map: DomainMap
) -> MembershipProvider:
    """Wrap a membership provider so every built component is domain-scoped."""

    def provider(owner: Process) -> DomainScopedMembership:
        return DomainScopedMembership(owner, inner(owner), domain_map)

    return provider
