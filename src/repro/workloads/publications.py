"""Publication traffic generators.

Drives the ``publish`` side of an experiment: which node publishes, on which
topic (or with which content attributes), at what rate, for how long.  The
generator schedules publications directly on the simulator so dissemination
and publication interleave exactly as they would in a live system, instead
of front-loading all events at time zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..pubsub.events import Event
from ..sim.engine import Simulator
from .interest import AttributeInterest
from .popularity import TopicPopularity

__all__ = ["PublicationSchedule", "TopicPublicationWorkload", "ContentPublicationWorkload"]


@dataclass
class PublicationSchedule:
    """Record of what a workload published (used by analysis as ground truth)."""

    events: List[Event] = field(default_factory=list)

    def add(self, event: Event) -> None:
        self.events.append(event)

    def count(self) -> int:
        """Number of events published so far."""
        return len(self.events)

    def by_topic(self) -> Dict[str, int]:
        """Events per topic."""
        counts: Dict[str, int] = {}
        for event in self.events:
            topic = event.topic or "<none>"
            counts[topic] = counts.get(topic, 0) + 1
        return counts


class _PublicationWorkload:
    """What the publication workloads share: who publishes, when, and the record.

    ``start`` schedules every publication on a simulator up front; a live
    :class:`~repro.runtime.loadgen.LoadGenerator` paces the same
    ``_publish_one`` calls on the wall clock instead, so both engines draw
    the same publications from one seed.

    Parameters
    ----------
    system:
        Any :class:`~repro.pubsub.interfaces.DisseminationSystem`.
    simulator:
        The scheduling substrate (``rng`` and, for :meth:`start`,
        ``schedule_at``).
    publishers:
        Node ids allowed to publish (round-robin).
    rate:
        Events per time unit (spread evenly within the unit).
    """

    def __init__(self, system, simulator: Simulator, publishers: Sequence[str], rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if not publishers:
            raise ValueError("at least one publisher is required")
        self.system = system
        self.simulator = simulator
        self.publishers = list(publishers)
        self.rate = rate
        self.schedule = PublicationSchedule()
        self._publisher_index = 0

    def start(self, duration: float, start_at: float = 0.0) -> int:
        """Schedule all publications within ``[start_at, start_at + duration)``.

        Returns the number of scheduled publications.
        """
        total = int(self.rate * duration)
        interval = duration / max(total, 1)
        for index in range(total):
            at = start_at + index * interval
            self.simulator.schedule_at(at, self._publish_one, label="workload-publish")
        return total

    def _next_publisher(self) -> str:
        publisher = self.publishers[self._publisher_index % len(self.publishers)]
        self._publisher_index += 1
        return publisher

    def _publish_one(self) -> None:
        raise NotImplementedError


class TopicPublicationWorkload(_PublicationWorkload):
    """Publishes topic events at a steady rate with Zipf topic selection.

    Parameters (in addition to the shared ones)
    ----------
    popularity:
        Topic popularity; publication topics are drawn from it, so popular
        topics carry proportionally more traffic.
    event_size:
        Abstract size attached to every event.
    """

    def __init__(
        self,
        system,
        simulator: Simulator,
        popularity: TopicPopularity,
        publishers: Sequence[str],
        rate: float = 4.0,
        event_size: int = 1,
    ) -> None:
        super().__init__(system, simulator, publishers, rate)
        self.popularity = popularity
        self.event_size = event_size

    def _publish_one(self) -> None:
        rng = self.simulator.rng.stream("workload-publications")
        topic = self.popularity.sample(rng)
        event = self.system.publish(self._next_publisher(), topic=topic, size=self.event_size)
        self.schedule.add(event)


class ContentPublicationWorkload(_PublicationWorkload):
    """Publishes content-based events whose attributes come from an interest model."""

    def __init__(
        self,
        system,
        simulator: Simulator,
        attribute_model: AttributeInterest,
        publishers: Sequence[str],
        rate: float = 4.0,
    ) -> None:
        super().__init__(system, simulator, publishers, rate)
        self.attribute_model = attribute_model

    def _publish_one(self) -> None:
        rng = self.simulator.rng.stream("workload-content")
        attributes = self.attribute_model.random_event_attributes(rng)
        event = self.system.publish(self._next_publisher(), **attributes)
        self.schedule.add(event)
