"""The :class:`Telemetry` facade: tagged instruments, one store, snapshots.

Instruments are keyed by ``(name, tags)`` where tags are structured
``key=value`` pairs (``node="node-007"``, ``topic="t3"``,
``system="fair-gossip"``) normalised into a sorted tuple.  Hot-path
callers fetch an instrument once and hold it (``self._latency =
telemetry.histogram("rt.delivery_latency_units")``); the shortcut methods
(:meth:`increment`, :meth:`observe`, :meth:`set_gauge`) exist for cold
paths.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .instruments import Counter, Gauge, Histogram, HistogramSummary, Timer
from .snapshot import TagTuple, TelemetrySnapshot, _normalise_tags

__all__ = ["Telemetry"]


class Telemetry:
    """Store of tagged, typed instruments; the single metrics API.

    Parameters
    ----------
    time_source:
        Optional clock for :meth:`timer` spans.  Defaults to
        ``time.perf_counter`` inside :class:`~repro.telemetry.instruments.Timer`;
        simulator-side callers pass ``lambda: simulator.now`` so timed spans
        stay deterministic.
    """

    def __init__(self, time_source: Optional[Callable[[], float]] = None) -> None:
        self._time_source = time_source
        self._counters: Dict[Tuple[str, TagTuple], Counter] = {}
        self._gauges: Dict[Tuple[str, TagTuple], Gauge] = {}
        self._histograms: Dict[Tuple[str, TagTuple], Histogram] = {}
        self._snapshot_sequence = 0

    # --------------------------------------------------------------- access

    def counter(self, name: str, **tags: object) -> Counter:
        """Return (creating if needed) the counter ``name`` for ``tags``."""
        key = (name, _normalise_tags(tags))
        metric = self._counters.get(key)
        if metric is None:
            metric = Counter()
            self._counters[key] = metric
        return metric

    def gauge(self, name: str, **tags: object) -> Gauge:
        """Return (creating if needed) the gauge ``name`` for ``tags``."""
        key = (name, _normalise_tags(tags))
        metric = self._gauges.get(key)
        if metric is None:
            metric = Gauge()
            self._gauges[key] = metric
        return metric

    def histogram(self, name: str, **tags: object) -> Histogram:
        """Return (creating if needed) the histogram ``name`` for ``tags``."""
        key = (name, _normalise_tags(tags))
        metric = self._histograms.get(key)
        if metric is None:
            metric = Histogram()
            self._histograms[key] = metric
        return metric

    def timer(self, name: str, **tags: object) -> Timer:
        """A context-manager timer recording into the histogram ``name``."""
        return Timer(self.histogram(name, **tags), time_source=self._time_source)

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

    # -------------------------------------------------------------- queries

    def counter_value(self, name: str, **tags: object) -> float:
        """Current value of a counter (0 if it was never touched)."""
        metric = self._counters.get((name, _normalise_tags(tags)))
        return metric.value if metric is not None else 0.0

    def gauge_value(self, name: str, **tags: object) -> float:
        """Current value of a gauge (0 if it was never set)."""
        metric = self._gauges.get((name, _normalise_tags(tags)))
        return metric.value if metric is not None else 0.0

    def counter_total(self, name: str) -> float:
        """Sum of a counter over every tag set."""
        return sum(
            metric.value
            for (metric_name, _), metric in self._counters.items()
            if metric_name == name
        )

    def counters_by_tag(self, name: str, tag: str) -> Dict[object, float]:
        """Mapping ``tag value -> counter value`` for instruments carrying ``tag``."""
        return {
            dict(tag_tuple)[tag]: metric.value
            for (metric_name, tag_tuple), metric in self._counters.items()
            if metric_name == name and tag in dict(tag_tuple)
        }

    def gauges_by_tag(self, name: str, tag: str) -> Dict[object, float]:
        """Mapping ``tag value -> gauge value`` for instruments carrying ``tag``."""
        return {
            dict(tag_tuple)[tag]: metric.value
            for (metric_name, tag_tuple), metric in self._gauges.items()
            if metric_name == name and tag in dict(tag_tuple)
        }

    def histogram_summary(self, name: str, **tags: object) -> HistogramSummary:
        """Summary of a histogram (empty summary if never observed).

        Read-only like :meth:`counter_value`: probing an absent histogram
        does not create it, so queries can never perturb the instrument set
        a snapshot serialises (the byte-identical-streams contract).
        """
        metric = self._histograms.get((name, _normalise_tags(tags)))
        if metric is None:
            return HistogramSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return metric.summary()

    def names(self) -> Dict[str, List[str]]:
        """All metric names grouped by instrument type."""
        return {
            "counters": sorted({name for name, _ in self._counters}),
            "gauges": sorted({name for name, _ in self._gauges}),
            "histograms": sorted({name for name, _ in self._histograms}),
        }

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

    def reset(self) -> None:
        """Forget every recorded value (between independent runs).

        Instruments are zeroed *in place* rather than discarded: hot paths
        pre-bind instrument objects, and dropping the dictionaries would
        silently split those writers from every future reader.
        """
        for counter in self._counters.values():
            counter.value = 0.0
        for gauge in self._gauges.values():
            gauge.value = 0.0
        for histogram in self._histograms.values():
            histogram.reset()
        self._snapshot_sequence = 0
