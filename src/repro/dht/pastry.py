"""Pastry-style prefix routing (reference [14] of the paper).

The structured baselines (Scribe, SplitStream, DKS-style grouping) need one
thing from Pastry: given a key, route hop by hop towards the live node whose
identifier is numerically closest to it (the key's *root*).
:class:`PastryRouter` provides that as an *oracle*, not as a protocol.

Substitution note (see docs/ARCHITECTURE.md): there are no per-node routing
tables and no join protocol.  Every hop is chosen with global knowledge of the
live set: the next hop is the live node sharing the *globally* longest prefix
with the key, else the globally closest one.  Routes are therefore much
shorter than Pastry's O(log n): over 2 000 random routes, 1 hop in ~90 % of
the cases and never more than 2, at 128 and at 1 024 nodes alike.  What
survives is that interior nodes forward traffic for keys (topics) they have no
interest in and that rendezvous nodes concentrate load; what does not is tree
depth, so interior-forwarder load is understated and rendezvous fan-out
overstated (ROADMAP, correctness aim).

Because the choice does not depend on where the message currently is, the
router keeps one summary per key — root, best prefix match, closest node —
computed from the live nodes on first use and dropped whenever
:meth:`PastryRouter.set_alive` changes the live set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .idspace import IdSpace

__all__ = ["PastryRouter", "RouteResult"]


@dataclass(frozen=True)
class RouteResult:
    """Outcome of routing a key from a start node."""

    key: int
    path: Tuple[str, ...]
    root: str

    @property
    def hops(self) -> int:
        """Number of overlay hops (edges) traversed."""
        return max(0, len(self.path) - 1)


class PastryRouter:
    """Prefix-routing oracle over a set of named nodes.

    Parameters
    ----------
    node_ids:
        Participating node names (their identifiers are derived by hashing).
    id_space:
        Identifier space parameters.
    leaf_set_size:
        Only enters :meth:`route`'s default hop limit; no leaf set is kept.
    """

    def __init__(
        self,
        node_ids: Sequence[str],
        id_space: Optional[IdSpace] = None,
        leaf_set_size: int = 4,
    ) -> None:
        if not node_ids:
            raise ValueError("the overlay needs at least one node")
        self.space = id_space if id_space is not None else IdSpace()
        self.leaf_set_size = leaf_set_size
        self._id_of: Dict[str, int] = {}
        self._name_of: Dict[int, str] = {}
        for name in node_ids:
            identifier = self.space.hash_name(name)
            # Resolve the (unlikely) collision by linear probing so every
            # node has a distinct identifier.
            while identifier in self._name_of:
                identifier = (identifier + 1) % self.space.size
            self._id_of[name] = identifier
            self._name_of[identifier] = name
        self._alive: Set[str] = set(node_ids)
        #: key -> (root, top_prefix, top_name, closest_distance, closest_name).
        #: A function of the live set only, so set_alive is its one invalidation.
        self._summaries: Dict[int, Tuple[str, int, str, int, str]] = {}

    # -------------------------------------------------------------- liveness

    def set_alive(self, node_id: str, alive: bool) -> None:
        """Mark a node up or down; dead nodes are skipped by routing."""
        if node_id not in self._id_of:
            raise KeyError(f"unknown node {node_id!r}")
        if alive:
            self._alive.add(node_id)
        else:
            self._alive.discard(node_id)
        self._summaries.clear()

    def alive_nodes(self) -> List[str]:
        """Names of nodes currently alive, sorted."""
        return sorted(self._alive)

    # -------------------------------------------------------------- identity

    def key_for(self, name: str) -> int:
        """Hash an arbitrary name (for example a topic) into the id space."""
        return self.space.hash_name(name)

    def root_of(self, key: int) -> str:
        """The live node numerically closest to ``key`` (the rendezvous node)."""
        return self._summary(key)[0]

    # --------------------------------------------------------------- routing

    def _summary(self, key: int) -> Tuple[str, int, str, int, str]:
        """What routing towards ``key`` needs to know about the live set.

        ``root`` follows :meth:`IdSpace.closest` (distance ties go to the
        smaller identifier); the best prefix match is the minimum of
        ``(-prefix, distance, name)`` and the closest node the minimum of
        ``(distance, name)``, so ``root`` and ``closest_name`` can differ.
        """
        summary = self._summaries.get(key)
        if summary is None:
            if not self._alive:
                raise RuntimeError("no live nodes in the overlay")
            space = self.space
            live = [(space.distance(self._id_of[name], key), name) for name in self._alive]
            closest_distance, closest_name = min(live)
            negated_prefix, _, top_name = min(
                (-space.shared_prefix_length(self._id_of[name], key), distance, name)
                for distance, name in live
            )
            root = self._name_of[space.closest(key, (self._id_of[name] for name in self._alive))]
            summary = (root, -negated_prefix, top_name, closest_distance, closest_name)
            self._summaries[key] = summary
        return summary

    def next_hop(self, current: str, key: int) -> Optional[str]:
        """The next node on the route from ``current`` towards ``key``'s root.

        Returns ``None`` when ``current`` already is the root.  Otherwise the
        live node sharing the longest prefix with the key, if that prefix is
        strictly longer than ``current``'s; else the live node closest to the
        key, if it is strictly closer than ``current``; else ``None``.  Both
        candidates are the same for every ``current`` (excluding ``current``
        changes nothing: no node beats itself strictly), which is why they
        come from the per-key summary.
        """
        current_id = self._id_of[current]
        root, top_prefix, top_name, closest_distance, closest_name = self._summary(key)
        if current == root:
            return None
        if top_prefix > self.space.shared_prefix_length(current_id, key):
            return top_name
        if closest_distance < self.space.distance(current_id, key):
            return closest_name
        return None

    def route(self, start: str, key: int, max_hops: Optional[int] = None) -> RouteResult:
        """Full route from ``start`` to the root of ``key``.

        ``max_hops`` defaults to the number of digits plus the leaf-set size
        plus two, far above the two hops the oracle takes in practice;
        exceeding it indicates a bug and raises instead of looping forever.
        """
        limit = max_hops if max_hops is not None else self.space.digits + self.leaf_set_size + 2
        path = [start]
        current = start
        for _ in range(limit):
            nxt = self.next_hop(current, key)
            if nxt is None:
                return RouteResult(key=key, path=tuple(path), root=current)
            path.append(nxt)
            current = nxt
        raise RuntimeError(
            f"route from {start} to key {self.space.format(key)} exceeded {limit} hops"
        )
