"""Unified telemetry: one streaming metrics API for simulator and runtime.

This package is the single observability surface of the repository.  Both
worlds — the discrete-event simulator and the live asyncio runtime — record
through the same :class:`Telemetry` facade with typed instruments
(:class:`Counter`, :class:`Gauge`, :class:`Histogram`, :class:`Timer`)
carrying structured tags (``node=...``, ``topic=...``), and both expose
their mid-run state the same way: :meth:`Telemetry.snapshot` produces an
immutable, JSON-serializable :class:`TelemetrySnapshot`, and a
:class:`SnapshotScheduler` emits periodic snapshots to pluggable
:class:`TelemetrySink` implementations (in-memory ring buffer, JSON-lines,
CSV, Prometheus text exposition).

Design constraints, in order:

1. **O(1)-memory hot paths.** :class:`Histogram` is a bounded streaming
   estimator (fixed geometric buckets plus a small raw-sample buffer); it
   never retains every observation.
2. **Determinism.** Nothing here draws randomness or reads wall time unless
   explicitly handed a clock; snapshots of a deterministic simulation are
   byte-identical across runs.
3. **Zero new dependencies.** Sinks write plain text formats (JSON lines,
   CSV, Prometheus exposition) with the standard library only.
"""

from .instruments import (
    Counter,
    Gauge,
    Histogram,
    HistogramState,
    HistogramSummary,
    Timer,
    percentile,
)
from .facade import Telemetry
from .snapshot import SNAPSHOT_SCHEMA, SnapshotScheduler, TelemetrySnapshot
from .sinks import (
    DEFAULT_SNAPSHOT_PERIOD,
    CsvSink,
    JsonlSink,
    MemorySink,
    PrometheusSink,
    TelemetrySink,
    parse_sink_spec,
    render_prometheus,
)

__all__ = [
    "DEFAULT_SNAPSHOT_PERIOD",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramState",
    "HistogramSummary",
    "Timer",
    "percentile",
    "Telemetry",
    "TelemetrySnapshot",
    "SnapshotScheduler",
    "TelemetrySink",
    "MemorySink",
    "JsonlSink",
    "CsvSink",
    "PrometheusSink",
    "parse_sink_spec",
    "SNAPSHOT_SCHEMA",
    "render_prometheus",
]
