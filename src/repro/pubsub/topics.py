"""Topics and topic hierarchies.

Topic-based selection (§2, §5.1) associates each event with a single topic.
Data-aware multicast (§4.2) additionally organises topics into a hierarchy
where subscribing to a *supertopic* implies interest in all its descendants;
the :class:`TopicHierarchy` here provides that structure for the
``repro.damulticast`` baseline and for hierarchical workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set

__all__ = ["Topic", "TopicHierarchy", "topic_path"]

#: Separator used in hierarchical topic names, e.g. ``"sports/football/uefa"``.
TOPIC_SEPARATOR = "/"


def topic_path(name: str) -> List[str]:
    """Split a hierarchical topic name into its path components.

    ``"sports/football"`` becomes ``["sports", "sports/football"]`` — every
    prefix is itself a topic, which is the property data-aware multicast uses
    to route through supertopics.
    """
    parts = [part for part in name.split(TOPIC_SEPARATOR) if part]
    if not parts:
        raise ValueError("topic name must contain at least one non-empty component")
    prefixes: List[str] = []
    for index in range(len(parts)):
        prefixes.append(TOPIC_SEPARATOR.join(parts[: index + 1]))
    return prefixes


@dataclass(frozen=True)
class Topic:
    """A named topic.

    Equality and hashing are by name, so topics can be freely re-created at
    different call sites without identity bookkeeping.
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("topic name must be non-empty")

    @property
    def parent_name(self) -> Optional[str]:
        """Name of the parent topic in the hierarchy, or ``None`` at the root."""
        if TOPIC_SEPARATOR not in self.name:
            return None
        return self.name.rsplit(TOPIC_SEPARATOR, 1)[0]

    def __str__(self) -> str:
        return self.name


class TopicHierarchy:
    """A forest of topics linked by the ``/`` naming convention.

    Adding ``"a/b/c"`` implicitly adds ``"a"`` and ``"a/b"``.  The hierarchy
    answers ancestor/descendant queries and enumerates topics in
    deterministic (sorted) order so experiments are reproducible.
    """

    def __init__(self, names: Optional[Iterable[str]] = None) -> None:
        self._topics: Dict[str, Topic] = {}
        self._children: Dict[str, Set[str]] = {}
        for name in names or ():
            self.add(name)

    def add(self, name: str) -> Topic:
        """Add a topic (and all its ancestors); returns the leaf topic."""
        leaf: Optional[Topic] = None
        for prefix in topic_path(name):
            if prefix not in self._topics:
                topic = Topic(prefix)
                self._topics[prefix] = topic
                parent = topic.parent_name
                if parent is not None:
                    self._children.setdefault(parent, set()).add(prefix)
            leaf = self._topics[prefix]
        assert leaf is not None  # topic_path guarantees at least one component
        return leaf

    def __contains__(self, name: str) -> bool:
        return name in self._topics

    def __len__(self) -> int:
        return len(self._topics)

    def __iter__(self) -> Iterator[Topic]:
        for name in sorted(self._topics):
            yield self._topics[name]

    def get(self, name: str) -> Topic:
        """Return the topic with the given name (KeyError if absent)."""
        return self._topics[name]

    def names(self) -> List[str]:
        """All topic names, sorted."""
        return sorted(self._topics)

    def children(self, name: str) -> List[Topic]:
        """Direct children of a topic, sorted by name."""
        return [self._topics[child] for child in sorted(self._children.get(name, ()))]

    def descendants(self, name: str) -> List[Topic]:
        """All strict descendants of a topic, sorted by name."""
        result: List[Topic] = []
        stack = sorted(self._children.get(name, ()))
        while stack:
            current = stack.pop(0)
            result.append(self._topics[current])
            stack = sorted(self._children.get(current, ())) + stack
        return result
