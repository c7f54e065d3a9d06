"""Events: the unit of information the system disseminates.

Section 2 of the paper models an event as carrying *attributes and
corresponding values* which are matched against filters.  Topic-based
selection is the degenerate case of a single ``topic`` attribute without
conditions, so a single :class:`Event` type serves both the topic-based and
the expressive (content-based) dissemination modes.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

__all__ = ["Event", "EventFactory", "TOPIC_ATTRIBUTE"]

#: Reserved attribute name that carries the topic for topic-based selection.
TOPIC_ATTRIBUTE = "topic"


@dataclass(frozen=True)
class Event:
    """An immutable published event.

    Attributes
    ----------
    event_id:
        Globally unique identifier (publisher id + a publisher-local
        sequence number is the usual scheme).
    publisher:
        Node id of the publishing process.
    attributes:
        Attribute/value mapping, including ``topic`` when the event belongs
        to a topic.  Values are restricted to hashable scalars so matching
        stays cheap.
    published_at:
        Simulated time of publication (used for latency/round measurements).
    size:
        Abstract payload size used by the payload-aware fairness accounting
        (Figure 3 weighs contribution by gossip message size).
    """

    event_id: str
    publisher: str
    attributes: Mapping[str, Any] = field(default_factory=dict)
    published_at: float = 0.0
    size: int = 1

    @property
    def topic(self) -> Optional[str]:
        """The event's topic, or ``None`` for purely content-based events."""
        value = self.attributes.get(TOPIC_ATTRIBUTE)
        return None if value is None else str(value)

    def attribute(self, name: str, default: Any = None) -> Any:
        """Return a single attribute value with an optional default."""
        return self.attributes.get(name, default)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form; inverse of :meth:`from_dict`."""
        return {
            "event_id": self.event_id,
            "publisher": self.publisher,
            "attributes": dict(self.attributes),
            "published_at": self.published_at,
            "size": self.size,
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "Event":
        """Rebuild an event from :meth:`to_dict` output; ids must be strings.

        Returns the :class:`Event` already alive in this process under the
        same id when its ``publisher``, ``attributes``, ``published_at`` and
        ``size`` compare equal to the payload's, so the nodes of one process
        share one object per event, as they do in the simulator.  Any
        difference builds a fresh event after every check, and the caller's
        own id dedupe decides what becomes of it.  The table holds events
        weakly: it is as large as what is still referenced, no larger.
        """
        event_id, publisher = payload["event_id"], payload["publisher"]
        if type(event_id) is not str or type(publisher) is not str:
            raise TypeError(f"event_id/publisher must be strings: {event_id!r} {publisher!r}")
        live = _LIVE_EVENTS.get(event_id)
        if (
            live is not None
            and live.publisher == publisher
            and live.published_at == payload.get("published_at", 0.0)
            and live.size == payload.get("size", 1)
            and live.attributes == payload.get("attributes", {})
        ):
            return live
        event = _LIVE_EVENTS[event_id] = Event(
            event_id=event_id,
            publisher=publisher,
            attributes=dict(payload.get("attributes", {})),
            published_at=float(payload.get("published_at", 0.0)),
            size=int(payload.get("size", 1)),
        )
        return event

    def with_time(self, published_at: float) -> "Event":
        """Return a copy stamped with a publication time."""
        return Event(
            event_id=self.event_id,
            publisher=self.publisher,
            attributes=dict(self.attributes),
            published_at=published_at,
            size=self.size,
        )

    def __hash__(self) -> int:
        return hash(self.event_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.event_id == other.event_id


#: ``event_id -> Event`` of the decoded events still referenced; see :meth:`Event.from_dict`.
_LIVE_EVENTS: "weakref.WeakValueDictionary[str, Event]" = weakref.WeakValueDictionary()


class EventFactory:
    """Creates events with unique ids for a given publisher.

    The factory guarantees uniqueness by combining the publisher id with a
    local monotonically increasing sequence number, mirroring how real
    publish/subscribe clients generate event ids without coordination.
    """

    def __init__(self, publisher: str) -> None:
        self.publisher = publisher
        self._sequence = itertools.count()

    def create(
        self,
        attributes: Optional[Mapping[str, Any]] = None,
        topic: Optional[str] = None,
        published_at: float = 0.0,
        size: int = 1,
    ) -> Event:
        """Build a new event; ``topic`` is merged into the attribute map."""
        merged: Dict[str, Any] = dict(attributes or {})
        if topic is not None:
            merged[TOPIC_ATTRIBUTE] = topic
        sequence = next(self._sequence)
        return Event(
            event_id=f"{self.publisher}#{sequence}",
            publisher=self.publisher,
            attributes=merged,
            published_at=published_at,
            size=size,
        )
