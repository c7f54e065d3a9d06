"""Pastry-style prefix routing (reference [14] of the paper).

The structured baselines (Scribe, SplitStream, DKS-style grouping) need one
thing from Pastry: given a key, route hop by hop towards the live node whose
identifier is numerically closest to it (the key's *root*), resolving at
least one identifier digit per hop.  :class:`PastryRouter` provides exactly
that.

Substitution note (documented in DESIGN.md): the routing tables are built
from the simulator's global membership instead of through Pastry's join
protocol.  The joining handshake is not what the paper's fairness argument is
about — what matters is the *structure* of the resulting routes: O(log n)
hops, interior nodes forwarding traffic for keys (topics) they have no
interest in, and rendezvous nodes concentrating load.  Those properties are
preserved because the routes are computed with the same prefix-resolution
rule Pastry uses.  Routing state is refreshed lazily when nodes fail, which
mirrors Pastry's repair behaviour at the level of detail the experiments
need.
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
        Number of numerically closest neighbours each node keeps on each
        side; the last hops of a route go through the leaf set exactly as in
        Pastry.
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

    # -------------------------------------------------------------- liveness

    def set_alive(self, node_id: str, alive: bool) -> None:
        """Mark a node up or down; dead nodes are skipped by routing."""
        if node_id not in self._id_of:
            raise KeyError(f"unknown node {node_id!r}")
        if alive:
            self._alive.add(node_id)
        else:
            self._alive.discard(node_id)

    def alive_nodes(self) -> List[str]:
        """Names of nodes currently alive, sorted."""
        return sorted(self._alive)

    # -------------------------------------------------------------- identity

    def node_identifier(self, node_id: str) -> int:
        """The numeric identifier assigned to a node."""
        return self._id_of[node_id]

    def key_for(self, name: str) -> int:
        """Hash an arbitrary name (for example a topic) into the id space."""
        return self.space.hash_name(name)

    def root_of(self, key: int) -> str:
        """The live node numerically closest to ``key`` (the rendezvous node)."""
        alive_ids = [self._id_of[name] for name in self._alive]
        if not alive_ids:
            raise RuntimeError("no live nodes in the overlay")
        closest = self.space.closest(key, alive_ids)
        assert closest is not None
        return self._name_of[closest]

    # --------------------------------------------------------------- routing

    def next_hop(self, current: str, key: int) -> Optional[str]:
        """The next node on the route from ``current`` towards ``key``'s root.

        Returns ``None`` when ``current`` already is the root.  The rule is
        Pastry's: prefer a live node whose identifier shares a strictly
        longer prefix with the key; otherwise fall back to a live node that
        is numerically closer to the key than the current one (leaf-set
        style), which guarantees progress and termination.
        """
        current_id = self._id_of[current]
        root = self.root_of(key)
        if current == root:
            return None
        current_prefix = self.space.shared_prefix_length(current_id, key)
        current_distance = self.space.distance(current_id, key)

        best_prefix_candidate: Optional[Tuple[int, int, str]] = None
        best_closer_candidate: Optional[Tuple[int, str]] = None
        for name in self._alive:
            if name == current:
                continue
            identifier = self._id_of[name]
            prefix = self.space.shared_prefix_length(identifier, key)
            distance = self.space.distance(identifier, key)
            if prefix > current_prefix:
                candidate = (-prefix, distance, name)
                if best_prefix_candidate is None or candidate < best_prefix_candidate:
                    best_prefix_candidate = candidate
            if distance < current_distance:
                candidate_closer = (distance, name)
                if best_closer_candidate is None or candidate_closer < best_closer_candidate:
                    best_closer_candidate = candidate_closer
        if best_prefix_candidate is not None:
            return best_prefix_candidate[2]
        if best_closer_candidate is not None:
            return best_closer_candidate[1]
        return None

    def route(self, start: str, key: int, max_hops: Optional[int] = None) -> RouteResult:
        """Full route from ``start`` to the root of ``key``.

        ``max_hops`` defaults to the number of digits plus the leaf-set size,
        which prefix routing can never exceed; exceeding it indicates a bug
        and raises instead of looping forever.
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
