"""Pluggable snapshot sinks: ring buffer, JSON lines, CSV, Prometheus.

A sink receives every :class:`~repro.telemetry.snapshot.TelemetrySnapshot`
the :class:`~repro.telemetry.snapshot.SnapshotScheduler` emits.  The
``TelemetrySink`` protocol is two methods — ``emit(snapshot)`` and
``close()`` — so custom exporters (a metrics socket, a database writer) are
a dozen lines.  Sinks are addressable from the CLI via compact specs::

    --telemetry jsonl:out/metrics.jsonl
    --telemetry csv:out/metrics.csv
    --telemetry prom:out/metrics.prom
    --telemetry memory            (or memory:512 for a custom capacity)

JSON-lines output is the canonical archival format: one canonical-JSON
snapshot per line (sorted keys, no whitespace), so two deterministic runs
produce byte-identical streams and :func:`repro.jsonio.read_jsonl` restores
the exact snapshots (``TelemetrySnapshot.from_dict(s.to_dict()) == s``).
The JSON-lines sink, the memory ring and the reader are the ones of
:mod:`repro.jsonio`, shared with the trace spans; this module keeps the
snapshot-specific renderings (CSV, Prometheus) and the CLI spec parser.
"""

from __future__ import annotations

import csv
import os
from typing import TYPE_CHECKING, Dict, IO, List, Optional, Protocol, runtime_checkable

from ..jsonio import JsonlSink, MemorySink, write_text

if TYPE_CHECKING:  # annotations only: snapshot.py imports this module
    from .snapshot import TelemetrySnapshot

__all__ = [
    "DEFAULT_SNAPSHOT_PERIOD",
    "TelemetrySink",
    "MemorySink",
    "JsonlSink",
    "CsvSink",
    "PrometheusSink",
    "parse_sink_spec",
    "render_prometheus",
]

#: Snapshot cadence used when nothing (spec or CLI) says otherwise, in
#: protocol time units.  Referenced by ``TelemetrySpec``, the experiment
#: runner, and the live host so the default cannot drift between them.
DEFAULT_SNAPSHOT_PERIOD = 5.0

#: Ring size of a ``memory`` sink built from a CLI spec without a capacity:
#: snapshots of a long live run are large, so the default stays small.
DEFAULT_MEMORY_CAPACITY = 256


@runtime_checkable
class TelemetrySink(Protocol):
    """What a snapshot consumer must implement."""

    def emit(self, snapshot: TelemetrySnapshot) -> None:
        """Receive one snapshot."""

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


def _metric_column(kind: str, name: str, tags) -> str:
    if not tags:
        return f"{kind}:{name}"
    rendered = ",".join(f"{key}={value}" for key, value in tags)
    return f"{kind}:{name}{{{rendered}}}"


class CsvSink:
    """Flat time-series CSV: one row per snapshot.

    Columns are fixed by the *first* snapshot (``sequence``, ``at``, one
    column per counter/gauge, and count/mean/p50/p95/p99 columns per
    histogram); metrics appearing later than the first snapshot are dropped
    from the CSV (the JSON-lines sink is the lossless format).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[IO[str]] = None
        self._writer = None
        self._columns: List[str] = []

    def _columns_for(self, snapshot: TelemetrySnapshot) -> List[str]:
        columns = ["sequence", "at"]
        columns.extend(
            _metric_column("counter", name, tags) for name, tags, _ in snapshot.counters
        )
        columns.extend(
            _metric_column("gauge", name, tags) for name, tags, _ in snapshot.gauges
        )
        for name, tags, _ in snapshot.histograms:
            base = _metric_column("histogram", name, tags)
            columns.extend(
                f"{base}.{statistic}" for statistic in ("count", "mean", "p50", "p95", "p99")
            )
        return columns

    def emit(self, snapshot: TelemetrySnapshot) -> None:
        if self._handle is None:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            self._handle = open(self.path, "w", encoding="utf-8", newline="")
            self._writer = csv.writer(self._handle)
            self._columns = self._columns_for(snapshot)
            self._writer.writerow(self._columns)
        row: Dict[str, object] = {"sequence": snapshot.sequence, "at": snapshot.at}
        for name, tags, value in snapshot.counters:
            row[_metric_column("counter", name, tags)] = value
        for name, tags, value in snapshot.gauges:
            row[_metric_column("gauge", name, tags)] = value
        for name, tags, state in snapshot.histograms:
            base = _metric_column("histogram", name, tags)
            summary = state.summary()
            row[f"{base}.count"] = summary.count
            row[f"{base}.mean"] = summary.mean
            row[f"{base}.p50"] = summary.p50
            row[f"{base}.p95"] = summary.p95
            row[f"{base}.p99"] = summary.p99
        self._writer.writerow([row.get(column, "") for column in self._columns])

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _prometheus_name(name: str) -> str:
    sanitized = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"repro_{sanitized}"


def _prometheus_labels(tags, extra: Optional[Dict[str, str]] = None) -> str:
    pairs = list(tags) + sorted((extra or {}).items())
    if not pairs:
        return ""
    escaped = ",".join(
        '{}="{}"'.format(key, str(value).replace("\\", "\\\\").replace('"', '\\"'))
        for key, value in pairs
    )
    return "{" + escaped + "}"


def render_prometheus(snapshot: TelemetrySnapshot) -> str:
    """Prometheus text exposition (version 0.0.4) of one snapshot.

    Counters and gauges map directly; histograms are exposed summary-style
    (``_count``/``_sum`` plus ``quantile`` gauges computed from the bounded
    bucket state).  Usable as a file for ``node_exporter``'s textfile
    collector, or served over HTTP by anything that can read a file.
    """
    lines: List[str] = [
        f"# repro telemetry snapshot sequence={snapshot.sequence} at={snapshot.at}"
    ]
    typed_names = set()
    for name, tags, value in snapshot.counters:
        metric = _prometheus_name(name)
        if metric not in typed_names:
            lines.append(f"# TYPE {metric} counter")
            typed_names.add(metric)
        lines.append(f"{metric}{_prometheus_labels(tags)} {value}")
    for name, tags, value in snapshot.gauges:
        metric = _prometheus_name(name)
        if metric not in typed_names:
            lines.append(f"# TYPE {metric} gauge")
            typed_names.add(metric)
        lines.append(f"{metric}{_prometheus_labels(tags)} {value}")
    for name, tags, state in snapshot.histograms:
        metric = _prometheus_name(name)
        if metric not in typed_names:
            lines.append(f"# TYPE {metric} summary")
            typed_names.add(metric)
        summary = state.summary()
        for quantile, quantile_value in (
            ("0.5", summary.p50),
            ("0.95", summary.p95),
            ("0.99", summary.p99),
        ):
            labels = _prometheus_labels(tags, {"quantile": quantile})
            lines.append(f"{metric}{labels} {quantile_value}")
        lines.append(f"{metric}_count{_prometheus_labels(tags)} {state.count}")
        lines.append(f"{metric}_sum{_prometheus_labels(tags)} {state.total}")
    return "\n".join(lines) + "\n"


class PrometheusSink:
    """Maintains a Prometheus textfile with the latest snapshot.

    Each emit atomically replaces the file (temp file + rename), so a
    scraper never reads a torn exposition.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def emit(self, snapshot: TelemetrySnapshot) -> None:
        write_text(self.path, render_prometheus(snapshot))

    def close(self) -> None:  # the latest exposition stays on disk
        pass


def parse_sink_spec(spec: str):
    """Build a sink from a compact CLI spec (``kind`` or ``kind:argument``).

    Supported kinds: ``jsonl:PATH``, ``csv:PATH``, ``prom:PATH`` (alias
    ``prometheus:PATH``), and ``memory`` (optional ``memory:CAPACITY``).
    """
    kind, _, argument = spec.partition(":")
    kind = kind.strip().lower()
    argument = argument.strip()
    if kind not in ("memory", "jsonl", "csv", "prom", "prometheus"):
        raise ValueError(
            f"unknown telemetry sink kind {kind!r}; expected jsonl, csv, prom, or memory"
        )
    if kind == "memory":
        return MemorySink(capacity=int(argument) if argument else DEFAULT_MEMORY_CAPACITY)
    if not argument:
        raise ValueError(
            f"telemetry sink {spec!r} needs a path, e.g. {kind}:out/metrics.{kind}"
        )
    if kind == "jsonl":
        return JsonlSink(argument)
    if kind == "csv":
        return CsvSink(argument)
    return PrometheusSink(argument)
