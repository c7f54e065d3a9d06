"""Snapshots: immutable telemetry state, emitted periodically to sinks.

A :class:`TelemetrySnapshot` is the frozen image of every instrument at one
instant — JSON-serializable, hashable enough to compare, and queryable by
name and tags (the live :class:`~repro.telemetry.facade.Telemetry` only
writes; its readers take a snapshot).
The :class:`SnapshotScheduler` turns snapshots into a *time series*: it
rides any object with the simulator's scheduling surface
(``schedule_periodic`` / ``now``), so the same class emits snapshots on
simulated-time ticks (given a ``Simulator``) or on wall-time ticks (given
an ``AsyncScheduler``), with zero RNG draws (no timer jitter) so a
deterministic simulation stays deterministic with snapshots enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..jsonio import decode, encode
from .instruments import HistogramState
from .sinks import DEFAULT_SNAPSHOT_PERIOD, parse_sink_spec

__all__ = ["SNAPSHOT_SCHEMA", "TelemetrySnapshot", "SnapshotScheduler"]

#: Normalised tag form: sorted ``(key, value)`` pairs with values coerced
#: to strings.  This module owns the definition; the facade imports it so
#: writer and reader can never normalise differently.
TagTuple = Tuple[Tuple[str, str], ...]

#: Schema tag carried by every serialized snapshot.
SNAPSHOT_SCHEMA = "telemetry-snapshot/v1"


def _normalise_tags(tags: Dict[str, object]) -> TagTuple:
    return tuple(sorted((key, str(value)) for key, value in tags.items()))


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable image of a telemetry store at one instant.

    ``at`` is the emitting scheduler's time (simulated units in the
    discrete-event engine, wall-clock units in the runtime); ``sequence``
    numbers snapshots within one run.  Entries are ``(name, tags, value)``
    triples sorted by name and tags; histogram entries carry the bounded
    :class:`HistogramState` instead of raw samples.
    """

    at: float = 0.0
    sequence: int = 0
    counters: Tuple[Tuple[str, TagTuple, float], ...] = ()
    gauges: Tuple[Tuple[str, TagTuple, float], ...] = ()
    histograms: Tuple[Tuple[str, TagTuple, HistogramState], ...] = ()

    # ------------------------------------------------------------ dict codec

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form; exact inverse of :meth:`from_dict`."""
        return {"schema": SNAPSHOT_SCHEMA, **encode(self)}

    @staticmethod
    def from_dict(payload: Mapping[str, object]) -> "TelemetrySnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output (or its JSON)."""
        return decode(TelemetrySnapshot, payload, ValueError, "telemetry snapshot", SNAPSHOT_SCHEMA)

    # --------------------------------------------------------------- queries

    def counter_value(self, name: str, **tags: object) -> float:
        """Value of one counter (0 if absent)."""
        wanted = _normalise_tags(tags)
        for entry_name, entry_tags, value in self.counters:
            if entry_name == name and entry_tags == wanted:
                return value
        return 0.0

    def gauge_value(self, name: str, **tags: object) -> float:
        """Value of one gauge (0 if absent)."""
        wanted = _normalise_tags(tags)
        for entry_name, entry_tags, value in self.gauges:
            if entry_name == name and entry_tags == wanted:
                return value
        return 0.0

    def counter_total(self, name: str) -> float:
        """Sum of a counter over every tag set."""
        return sum(value for entry_name, _, value in self.counters if entry_name == name)

    def counters_by_tag(self, name: str, tag: str) -> Dict[str, float]:
        """Mapping ``tag value -> counter value`` (entries carrying ``tag``)."""
        result: Dict[str, float] = {}
        for entry_name, entry_tags, value in self.counters:
            if entry_name != name:
                continue
            tag_map = dict(entry_tags)
            if tag in tag_map:
                result[tag_map[tag]] = value
        return result

    def gauges_by_tag(self, name: str, tag: str) -> Dict[str, float]:
        """Mapping ``tag value -> gauge value`` (entries carrying ``tag``)."""
        result: Dict[str, float] = {}
        for entry_name, entry_tags, value in self.gauges:
            if entry_name != name:
                continue
            tag_map = dict(entry_tags)
            if tag in tag_map:
                result[tag_map[tag]] = value
        return result


class SnapshotScheduler:
    """Emits periodic telemetry snapshots to a set of sinks.

    Parameters
    ----------
    telemetry:
        The store to snapshot.
    sinks:
        :class:`~repro.telemetry.sinks.TelemetrySink` instances receiving
        every snapshot.
    period:
        Tick period in the scheduler's time units (simulated units for the
        discrete-event engine, wall-clock units for the live runtime).
    scheduler:
        Any object with the simulator scheduling surface
        (``schedule_periodic(period, action, label=..., jitter=...)`` and
        ``now``) — a ``Simulator`` or an ``AsyncScheduler``.
    collect:
        Optional zero-argument callable invoked before each snapshot so the
        owner can refresh derived gauges (fairness indices, ledger totals)
        right before they are frozen.
    """

    def __init__(
        self,
        telemetry,
        sinks: Sequence,
        period: float,
        scheduler,
        collect: Optional[Callable[[], None]] = None,
        label: str = "telemetry-snapshot",
    ) -> None:
        if period <= 0:
            raise ValueError("snapshot period must be positive")
        self.telemetry = telemetry
        self.sinks = list(sinks)
        self.period = period
        self._scheduler = scheduler
        self._collect = collect
        self._label = label
        self._timer = None
        self.emitted = 0
        self._last_snapshot: Optional["TelemetrySnapshot"] = None

    @classmethod
    def attach(
        cls,
        telemetry,
        sinks: Sequence,
        period: Optional[float],
        scheduler,
        collect: Optional[Callable[[], None]] = None,
    ) -> Optional["SnapshotScheduler"]:
        """The engines' one way to snapshots: resolve, default, build, start.

        ``sinks`` mixes sink objects and compact specs (``"jsonl:PATH"``, see
        :func:`~repro.telemetry.sinks.parse_sink_spec`); ``period`` of
        ``None`` means :data:`DEFAULT_SNAPSHOT_PERIOD`.  Returns the started
        scheduler, or ``None`` when there are no sinks.
        """
        if not sinks:
            return None
        attached = cls(
            telemetry,
            [parse_sink_spec(sink) if isinstance(sink, str) else sink for sink in sinks],
            DEFAULT_SNAPSHOT_PERIOD if period is None else period,
            scheduler,
            collect=collect,
        )
        attached.start()
        return attached

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Arm the periodic tick (no jitter: snapshots draw no randomness)."""
        if self._timer is not None:
            return
        self._timer = self._scheduler.schedule_periodic(
            self.period, self.emit, label=self._label, jitter=0.0
        )

    def emit(self) -> "TelemetrySnapshot":
        """Collect, snapshot at the scheduler's current time, fan out."""
        if self._collect is not None:
            self._collect()
        snapshot = self.telemetry.snapshot(at=self._scheduler.now)
        for sink in self.sinks:
            sink.emit(snapshot)
        self.emitted += 1
        self._last_snapshot = snapshot
        return snapshot

    def stop(self, final: bool = True, close: bool = True) -> Optional["TelemetrySnapshot"]:
        """Stop ticking; optionally emit one final snapshot and close sinks.

        When a periodic tick already fired at the current time with the
        *identical* content (a run length that is an exact multiple of the
        period), the final emit is suppressed so the stream does not carry
        two copies of the same instant; the tick's snapshot is returned.
        """
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
        snapshot = None
        if final:
            previous = self._last_snapshot
            if self._collect is not None:
                self._collect()
            candidate = self.telemetry.snapshot(at=self._scheduler.now)
            if previous is not None and replace(
                candidate, sequence=previous.sequence
            ) == previous:
                snapshot = previous
            else:
                for sink in self.sinks:
                    sink.emit(candidate)
                self.emitted += 1
                self._last_snapshot = candidate
                snapshot = candidate
        if close:
            for sink in self.sinks:
                sink.close()
        return snapshot
