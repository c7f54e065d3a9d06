"""Unified telemetry: one streaming metrics API for simulator and runtime.

This package is the single observability surface of the repository.  Both
worlds — the discrete-event simulator and the live asyncio runtime — record
through the same :class:`Telemetry` facade with typed instruments
(:class:`Counter`, :class:`Gauge`, :class:`Histogram`) carrying structured
tags (``node=...``, ``topic=...``), and both expose their mid-run state the
same way: :meth:`Telemetry.snapshot` produces an immutable,
JSON-serializable :class:`TelemetrySnapshot`, and a
:class:`SnapshotScheduler` emits periodic snapshots to pluggable
:class:`TelemetrySink` implementations (in-memory ring buffer, JSON-lines,
CSV, Prometheus text exposition).  The facade only writes: a reader asks a
snapshot (``counter_total``, ``gauges_by_tag``, ``histogram_summary``, ...)
or reads an instrument it holds (``counter.value``, ``histogram.summary()``).

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

from .._exports import lazy_exports

_EXPORTS = {
    "DEFAULT_SNAPSHOT_PERIOD": ".sinks",
    "Counter": ".instruments",
    "Gauge": ".instruments",
    "Histogram": ".instruments",
    "HistogramState": ".instruments",
    "HistogramSummary": ".instruments",
    "percentile": ".instruments",
    "Telemetry": ".facade",
    "TelemetrySnapshot": ".snapshot",
    "SnapshotScheduler": ".snapshot",
    "TelemetrySink": ".sinks",
    "MemorySink": ".sinks",
    "JsonlSink": ".sinks",
    "CsvSink": ".sinks",
    "PrometheusSink": ".sinks",
    "parse_sink_spec": ".sinks",
    "SNAPSHOT_SCHEMA": ".snapshot",
    "render_prometheus": ".sinks",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
