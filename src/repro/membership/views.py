"""Partial views: bounded sets of neighbour descriptors.

Gossip protocols do not know the whole system; each process keeps a *partial
view* — a small set of node descriptors with freshness information — and the
peer-sampling service (CYCLON, lpbcast-style exchanges, §4.2 references
[2, 11, 12, 13, 15]) keeps that view fresh and well mixed.  The view is the
only source from which ``SELECTPARTICIPANTS(F)`` of Figure 4 draws gossip
targets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["NodeDescriptor", "PartialView"]


@dataclass(frozen=True)
class NodeDescriptor:
    """Descriptor of a remote node as known by some process.

    Attributes
    ----------
    node_id:
        Identifier of the described node.
    age:
        Number of shuffle rounds since the descriptor was created at its
        subject; CYCLON uses the age to retire stale entries, which is what
        removes crashed nodes from views.
    topics:
        Optional snapshot of the subject's subscribed topics, used by the
        interest-aware view bias.
    """

    node_id: str
    age: int = 0
    topics: Tuple[str, ...] = ()

    def aged(self, increment: int = 1) -> "NodeDescriptor":
        """Return a copy with the age increased by ``increment``."""
        return NodeDescriptor(self.node_id, self.age + increment, self.topics)

    def refreshed(self) -> "NodeDescriptor":
        """Return a copy with age reset to zero (a fresh sighting)."""
        return NodeDescriptor(self.node_id, 0, self.topics)


class PartialView:
    """A bounded collection of :class:`NodeDescriptor`, one per node id.

    The view never contains its owner and never holds two descriptors for
    the same node; inserting a duplicate keeps the younger descriptor.

    Ages are kept as a view-level epoch: an entry stores the epoch at which
    its descriptor would have had age zero, so a shuffle round ages the whole
    view by bumping one counter.  Every descriptor handed out is a fresh
    snapshot (``age = epoch - birth`` at that moment) and never changes when
    the view ages afterwards.
    """

    def __init__(self, owner_id: str, capacity: int = 20) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.owner_id = owner_id
        self.capacity = capacity
        self._epoch = 0
        #: node id -> (birth epoch, topics)
        self._entries: Dict[str, Tuple[int, Tuple[str, ...]]] = {}

    # ------------------------------------------------------------ mutation

    def add(self, descriptor: NodeDescriptor) -> bool:
        """Insert a descriptor, respecting capacity.

        Returns ``True`` if the view changed.  When full, the oldest entry is
        evicted only if the incoming descriptor is younger than it.
        """
        node_id = descriptor.node_id
        if node_id == self.owner_id:
            return False
        entries = self._entries
        birth = self._epoch - descriptor.age
        existing = entries.get(node_id)
        if existing is not None:
            if birth <= existing[0]:
                return False
        elif len(entries) >= self.capacity:
            oldest_id = self._oldest_id()
            if birth <= entries[oldest_id][0]:
                return False
            del entries[oldest_id]
        entries[node_id] = (birth, descriptor.topics)
        return True

    def remove(self, node_id: str) -> bool:
        """Drop the descriptor for ``node_id`` if present."""
        return self._entries.pop(node_id, None) is not None

    def replace_entries(self, descriptors: Iterable[NodeDescriptor]) -> None:
        """Replace the whole content (used by shuffle responses)."""
        self._entries.clear()
        for descriptor in descriptors:
            if descriptor.node_id != self.owner_id and len(self._entries) < self.capacity:
                self._entries[descriptor.node_id] = (
                    self._epoch - descriptor.age,
                    descriptor.topics,
                )

    def age_all(self, increment: int = 1) -> None:
        """Increase the age of every descriptor (one shuffle round passed)."""
        self._epoch += increment

    # ------------------------------------------------------------- queries

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def node_ids(self) -> List[str]:
        """Ids of all described nodes, sorted for determinism."""
        return sorted(self._entries)

    def descriptors(self) -> List[NodeDescriptor]:
        """All descriptors, sorted by node id."""
        return [self._describe(node_id) for node_id in sorted(self._entries)]

    def get(self, node_id: str) -> Optional[NodeDescriptor]:
        """Descriptor for ``node_id`` if present."""
        return self._describe(node_id) if node_id in self._entries else None

    def oldest(self) -> Optional[NodeDescriptor]:
        """The descriptor with the highest age (ties broken by node id)."""
        return self._describe(self._oldest_id()) if self._entries else None

    def sample(self, rng: random.Random, count: int, exclude: Iterable[str] = ()) -> List[str]:
        """Uniformly sample up to ``count`` distinct node ids from the view."""
        if not isinstance(exclude, (set, frozenset)):
            exclude = set(exclude)
        owner = self.owner_id
        candidates = [
            node_id for node_id in self.node_ids() if node_id != owner and node_id not in exclude
        ]
        if count >= len(candidates):
            return candidates
        return rng.sample(candidates, count)

    def sample_descriptors(self, rng: random.Random, count: int) -> List[NodeDescriptor]:
        """Uniformly sample up to ``count`` descriptors."""
        node_ids = self.node_ids()
        if count < len(node_ids):
            node_ids = rng.sample(node_ids, count)
        return [self._describe(node_id) for node_id in node_ids]

    # ------------------------------------------------------------ internals

    def _describe(self, node_id: str) -> NodeDescriptor:
        birth, topics = self._entries[node_id]
        return NodeDescriptor(node_id, self._epoch - birth, topics)

    def _oldest_id(self) -> str:
        """Id of the highest ``(age, node_id)`` entry; the view must not be empty."""
        oldest_id, oldest_birth = "", None
        for node_id, (birth, _) in self._entries.items():
            if (
                oldest_birth is None
                or birth < oldest_birth
                or (birth == oldest_birth and node_id > oldest_id)
            ):
                oldest_id, oldest_birth = node_id, birth
        return oldest_id
