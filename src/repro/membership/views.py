"""Partial views: bounded sets of neighbour descriptors.

Gossip protocols do not know the whole system; each process keeps a *partial
view* — a small set of node descriptors with freshness information — and the
peer-sampling service (CYCLON, lpbcast-style exchanges, §4.2 references
[2, 11, 12, 13, 15]) keeps that view fresh and well mixed.  The view is the
only source from which ``SELECTPARTICIPANTS(F)`` of Figure 4 draws gossip
targets.

A view costs what a shuffle changes, not its size: the ids stay sorted
(``bisect``), so a draw samples them as a ``sorted()`` of the view would; ages
are one epoch counter plus a birth epoch per id; the oldest entry is one
``min`` keyed by birth.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Descriptor", "PartialView"]

#: A node descriptor as a view hands it out and a shuffle carries it:
#: ``(node_id, age)``, the age counting shuffle rounds since the descriptor
#: was created at its subject.  CYCLON uses the age to retire stale entries,
#: which is what removes crashed nodes from views.
Descriptor = Tuple[str, int]


class PartialView:
    """A bounded collection of descriptors, one per node id.

    The view never contains its owner and never holds two descriptors for
    the same node; inserting a duplicate keeps the younger descriptor.

    Ages are kept as a view-level epoch: an entry stores the epoch at which
    its descriptor would have had age zero, so a shuffle round ages the whole
    view by bumping one counter.  Every descriptor handed out is a fresh
    ``(node_id, epoch - birth)`` pair and never changes when the view ages
    afterwards.
    """

    def __init__(self, owner_id: str, capacity: int = 20) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.owner_id = owner_id
        self.capacity = capacity
        self._epoch = 0
        #: The described node ids, sorted.
        self._ids: List[str] = []
        #: node id -> birth epoch
        self._births: Dict[str, int] = {}

    # ------------------------------------------------------------ mutation

    def add(self, descriptor: Descriptor) -> bool:
        """Insert a descriptor, respecting capacity.

        Returns ``True`` if the view changed.  When full, the oldest entry is
        evicted only if the incoming descriptor is younger than it.
        """
        node_id, age = descriptor
        if node_id == self.owner_id:
            return False
        births = self._births
        birth = self._epoch - age
        existing = births.get(node_id)
        if existing is None:
            if len(births) >= self.capacity:
                oldest_id = self.oldest_id()
                if birth <= births[oldest_id]:
                    return False
                self.remove(oldest_id)
            insort(self._ids, node_id)
        elif birth <= existing:
            return False
        births[node_id] = birth
        return True

    def remove(self, node_id: str) -> bool:
        """Drop the descriptor for ``node_id`` if present."""
        if self._births.pop(node_id, None) is None:
            return False
        ids = self._ids
        del ids[bisect_left(ids, node_id)]
        return True

    def merge(self, received: Sequence[Descriptor], offered: Sequence[Descriptor]) -> None:
        """CYCLON's merge of a shuffle: a new entry takes a spare slot, else
        the slot of the first ``offered`` entry still present, else
        :meth:`add`'s age rule decides (evict the oldest only for a younger
        descriptor)."""
        births, ids, epoch, capacity = self._births, self._ids, self._epoch, self.capacity
        for node_id, age in received:
            birth = epoch - age
            existing = births.get(node_id)
            if existing is not None:
                if birth > existing:
                    births[node_id] = birth
                continue
            if node_id == self.owner_id:
                continue
            if len(births) >= capacity:
                for candidate, _ in offered:
                    if candidate in births:
                        break
                else:
                    candidate = self.oldest_id()
                    if birth <= births[candidate]:
                        continue
                del births[candidate]
                del ids[bisect_left(ids, candidate)]
            births[node_id] = birth
            insort(ids, node_id)

    def age_all(self, increment: int = 1) -> None:
        """Increase the age of every descriptor (one shuffle round passed)."""
        self._epoch += increment

    # ------------------------------------------------------------- queries

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._births

    def __len__(self) -> int:
        return len(self._births)

    def node_ids(self) -> List[str]:
        """Ids of all described nodes, sorted for determinism."""
        return list(self._ids)

    def oldest_id(self) -> Optional[str]:
        """Id of the entry with the highest age, the highest id on a tie."""
        return min(reversed(self._ids), key=self._births.__getitem__, default=None)

    def sample(self, rng: random.Random, count: int, exclude: Iterable[str] = ()) -> List[str]:
        """Uniformly sample up to ``count`` distinct node ids from the view."""
        candidates = self._ids
        if exclude:
            if not isinstance(exclude, (set, frozenset)):
                exclude = set(exclude)
            candidates = [node_id for node_id in candidates if node_id not in exclude]
        if count >= len(candidates):
            return list(candidates)
        return rng.sample(candidates, count)

    def sample_descriptors(self, rng: random.Random, count: int) -> List[Descriptor]:
        """Uniformly sample up to ``count`` descriptors; all of them, in id order
        and without a draw, when ``count`` is at least the view's size."""
        node_ids, epoch, births = self._ids, self._epoch, self._births
        if count < len(node_ids):
            node_ids = rng.sample(node_ids, count)
        return [(node_id, epoch - births[node_id]) for node_id in node_ids]
