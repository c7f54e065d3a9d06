"""The :class:`Telemetry` facade: tagged instruments, one store, snapshots.

Instruments are keyed by ``(name, tags)`` where tags are structured
``key=value`` pairs (``node="node-007"``, ``topic="t3"``,
``system="fair-gossip"``) normalised into a sorted tuple; a store keeps one
such tuple per distinct tag set, so the instruments of a node share theirs.  Hot-path
callers fetch an instrument once and hold it (``self._latency =
telemetry.histogram("rt.delivery_latency_units")``); the shortcut methods
(:meth:`increment`, :meth:`observe`, :meth:`set_gauge`) exist for cold
paths.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .instruments import Counter, Gauge, Histogram
from .snapshot import TagTuple, TelemetrySnapshot, _normalise_tags

__all__ = ["Telemetry"]


class Telemetry:
    """Store of tagged, typed instruments; the single metrics API.

    Writers record through the instruments; readers take a
    :meth:`snapshot` (whose queries answer by name and tags) or read an
    instrument they hold.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, TagTuple], Counter] = {}
        self._gauges: Dict[Tuple[str, TagTuple], Gauge] = {}
        self._histograms: Dict[Tuple[str, TagTuple], Histogram] = {}
        #: Each distinct normalised tag tuple, keyed by itself.
        self._tags: Dict[TagTuple, TagTuple] = {}
        self._snapshot_sequence = 0

    # --------------------------------------------------------------- access

    def counter(self, name: str, **tags: object) -> Counter:
        """Return (creating if needed) the counter ``name`` for ``tags``."""
        return self._instrument(self._counters, Counter, name, tags)

    def gauge(self, name: str, **tags: object) -> Gauge:
        """Return (creating if needed) the gauge ``name`` for ``tags``."""
        return self._instrument(self._gauges, Gauge, name, tags)

    def histogram(self, name: str, **tags: object) -> Histogram:
        """Return (creating if needed) the histogram ``name`` for ``tags``."""
        return self._instrument(self._histograms, Histogram, name, tags)

    def _instrument(self, table: Dict, kind: type, name: str, tags: Dict[str, object]):
        normalised = _normalise_tags(tags)
        key = (name, self._tags.setdefault(normalised, normalised))
        metric = table.get(key)
        if metric is None:
            metric = table[key] = kind()
        return metric

    # ------------------------------------------------------------ shortcuts

    def increment(self, name: str, amount: float = 1.0, **tags: object) -> None:
        """Increment a counter in one call."""
        self.counter(name, **tags).increment(amount)

    def observe(self, name: str, value: float, **tags: object) -> None:
        """Record one histogram sample in one call."""
        self.histogram(name, **tags).observe(value)

    def set_gauge(self, name: str, value: float, **tags: object) -> None:
        """Set a gauge in one call."""
        self.gauge(name, **tags).set(value)

    # ------------------------------------------------------------- snapshots

    def snapshot(self, at: float = 0.0) -> TelemetrySnapshot:
        """Immutable, JSON-serializable snapshot of every instrument.

        Entries are sorted by ``(name, tags)``, so two identical stores
        always serialise byte-identically.  Each call advances the
        snapshot sequence number.
        """
        sequence = self._snapshot_sequence
        self._snapshot_sequence += 1
        return TelemetrySnapshot(
            at=at,
            sequence=sequence,
            counters=tuple(
                (name, tags, metric.value)
                for (name, tags), metric in sorted(self._counters.items())
            ),
            gauges=tuple(
                (name, tags, metric.value)
                for (name, tags), metric in sorted(self._gauges.items())
            ),
            histograms=tuple(
                (name, tags, metric.state())
                for (name, tags), metric in sorted(self._histograms.items())
            ),
        )
