"""Reliability and latency analysis.

The fair protocol must not sacrifice the property that makes gossip
attractive in the first place: "processes reliably receive events which are
disseminated" (§4.2).  This module measures that property: per-event and
aggregate delivery ratios against the subscription-table oracle, delivery
latency, and the rounds-to-delivery distribution used by the Figure 4
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..jsonio import decode, encode
from ..pubsub.events import Event
from ..pubsub.interfaces import DeliveryLog
from ..pubsub.subscriptions import SubscriptionTable
from ..telemetry import HistogramSummary, percentile

__all__ = [
    "EventReliability",
    "ReliabilityReport",
    "measure_reliability",
    "latency_summary_from_snapshot",
]


@dataclass(frozen=True)
class EventReliability:
    """Delivery outcome of a single event."""

    event_id: str
    interested: int
    delivered: int

    @property
    def ratio(self) -> float:
        """Fraction of interested nodes that delivered the event."""
        if self.interested == 0:
            return 1.0
        return self.delivered / self.interested

    @property
    def complete(self) -> bool:
        """Whether every interested node delivered the event."""
        return self.delivered >= self.interested

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form; inverse of :meth:`from_dict`."""
        return encode(self)

    @staticmethod
    def from_dict(payload: Mapping[str, object]) -> "EventReliability":
        """Rebuild a per-event record from :meth:`to_dict` output."""
        return decode(EventReliability, payload, ValueError, "event reliability")


@dataclass(frozen=True)
class ReliabilityReport:
    """Aggregate reliability and latency of a run."""

    events: List[EventReliability]
    delivery_ratio: float
    complete_fraction: float
    mean_latency: float
    p95_latency: float
    max_latency: float
    mean_rounds: float
    p95_rounds: float

    def summary_row(self) -> Dict[str, float]:
        """Compact dictionary used by benchmark tables."""
        return {
            "events": float(len(self.events)),
            "delivery_ratio": self.delivery_ratio,
            "complete_fraction": self.complete_fraction,
            "mean_latency": self.mean_latency,
            "p95_latency": self.p95_latency,
            "mean_rounds": self.mean_rounds,
            "p95_rounds": self.p95_rounds,
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form; inverse of :meth:`from_dict`."""
        return encode(self)

    @staticmethod
    def from_dict(payload: Mapping[str, object]) -> "ReliabilityReport":
        """Rebuild a report from :meth:`to_dict` output."""
        return decode(ReliabilityReport, payload, ValueError, "reliability report")


def measure_reliability(
    published_events: Sequence[Event],
    delivery_log: DeliveryLog,
    subscriptions: SubscriptionTable,
    round_period: float = 1.0,
) -> ReliabilityReport:
    """Compare actual deliveries with the subscription-table oracle.

    ``published_events`` is the ground-truth list produced by the workload
    (or collected from ``publish`` return values).  An event whose
    publisher is itself interested counts that self-delivery like any other.
    """
    per_event: List[EventReliability] = []
    latencies: List[float] = []
    total_interested = 0
    total_delivered = 0
    for event in published_events:
        interested = set(subscriptions.interested_nodes(event))
        delivered_interested = 0
        for node_id, latency in delivery_log.event_latencies(event.event_id):
            if node_id in interested:
                delivered_interested += 1
                latencies.append(latency)
        per_event.append(
            EventReliability(
                event_id=event.event_id,
                interested=len(interested),
                delivered=delivered_interested,
            )
        )
        total_interested += len(interested)
        total_delivered += delivered_interested

    delivery_ratio = 1.0 if total_interested == 0 else total_delivered / total_interested
    complete_fraction = (
        1.0
        if not per_event
        else sum(1 for entry in per_event if entry.complete) / len(per_event)
    )
    ordered = sorted(latencies)
    mean_latency = sum(ordered) / len(ordered) if ordered else 0.0
    p95_latency = percentile(ordered, 0.95)
    max_latency = ordered[-1] if ordered else 0.0
    rounds = [latency / round_period for latency in ordered] if round_period > 0 else []
    mean_rounds = sum(rounds) / len(rounds) if rounds else 0.0
    p95_rounds = percentile(sorted(rounds), 0.95)
    return ReliabilityReport(
        events=per_event,
        delivery_ratio=delivery_ratio,
        complete_fraction=complete_fraction,
        mean_latency=mean_latency,
        p95_latency=p95_latency,
        max_latency=max_latency,
        mean_rounds=mean_rounds,
        p95_rounds=p95_rounds,
    )


def latency_summary_from_snapshot(
    snapshot, name: str = "sim.delivery_latency", **tags
) -> HistogramSummary:
    """Delivery-latency summary read from a telemetry snapshot.

    The experiment runner streams every delivery latency into the
    ``sim.delivery_latency`` histogram (the live runtime uses
    ``rt.delivery_latency_units``), so mid-run snapshots answer the latency
    questions this module otherwise answers from the delivery log after the
    run.  Returns an all-zero summary when the snapshot has no such
    histogram.
    """
    return snapshot.histogram_summary(name, **tags)
