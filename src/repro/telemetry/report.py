"""Post-hoc reporting: render tables from telemetry and result artifacts.

Backs ``python -m repro report ARTIFACT``.  The loader sniffs the artifact
kind — no re-running experiments required:

* **JSON-lines snapshot streams** (``--telemetry jsonl:...`` output): a
  per-snapshot time-series table plus fairness / latency tables built from
  the *final* snapshot via the snapshot-aware constructors in
  :mod:`repro.analysis`;
* **experiment result artifacts** (``--json`` output of
  ``run``/``sweep``/``compare``: ``{"schema": ..., "results": [...]}``);
* **cache artifacts** (one ``{"schema": ..., "result": {...}}`` file from
  ``.repro-cache``);
* **runtime artifacts** (``serve``/``loadgen`` ``--json`` output,
  ``rt-load/v1``);
* **campaign run manifests** (``manifest.json`` written by
  ``python -m repro campaign``, ``campaign-manifest/v1``).

Results loaded from an artifact and results loaded from the cache render
through the same code path, so the tables are identical for identical
result payloads — the property ``tests/test_telemetry.py`` pins.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence, Tuple

from ..jsonio import read_jsonl
from .snapshot import SNAPSHOT_SCHEMA, TelemetrySnapshot

__all__ = [
    "load_report_source",
    "render_report",
    "render_results",
    "render_snapshots",
    "ReportSource",
]


class ReportSource:
    """One loaded artifact: its kind plus the decoded payload."""

    def __init__(
        self, kind: str, path: str, snapshots=None, results=None, runtime=None, spans=None
    ):
        self.kind = kind  # "snapshots" | "results" | "runtime" | "trace" | "manifest"
        self.path = path
        self.snapshots: List[TelemetrySnapshot] = snapshots or []
        self.results = results or []
        # Campaign manifests share the raw-payload slot with runtime artifacts.
        self.runtime: Dict[str, object] = runtime or {}
        self.spans = spans or []


def _looks_like_snapshot_line(line: str) -> bool:
    try:
        payload = json.loads(line)
    except ValueError:
        return False
    return isinstance(payload, dict) and payload.get("schema") == SNAPSHOT_SCHEMA


def load_report_source(path: str) -> ReportSource:
    """Sniff and load one artifact; raises ``ValueError`` on unknown shapes."""
    if not os.path.exists(path):
        raise ValueError(f"artifact {path!r} does not exist")
    with open(path, "r", encoding="utf-8") as handle:
        head = handle.readline().strip()
    # Cheap JSON-lines sniff: only attempt to parse the head line when it
    # can plausibly be a snapshot (pretty-printed artifacts start with a
    # bare "{" and are skipped without parsing anything twice).
    if SNAPSHOT_SCHEMA in head and _looks_like_snapshot_line(head):
        snapshots = read_jsonl(path, SNAPSHOT_SCHEMA, TelemetrySnapshot.from_dict)
        return ReportSource("snapshots", path, snapshots=snapshots)
    from ..tracing import TRACE_SCHEMA, SpanRecord

    if TRACE_SCHEMA in head:
        return ReportSource("trace", path, spans=read_jsonl(path, TRACE_SCHEMA, SpanRecord.from_dict))

    from ..experiments.runner import ExperimentResult

    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as error:
            raise ValueError(
                f"artifact {path!r} is neither JSON-lines telemetry nor a JSON artifact: {error}"
            )
    if not isinstance(payload, dict):
        raise ValueError(f"artifact {path!r} is not a JSON object")
    if payload.get("schema") == SNAPSHOT_SCHEMA:
        return ReportSource(
            "snapshots", path, snapshots=[TelemetrySnapshot.from_dict(payload)]
        )
    if "results" in payload:
        results = [ExperimentResult.from_dict(entry) for entry in payload["results"]]
        return ReportSource("results", path, results=results)
    if "result" in payload:
        return ReportSource(
            "results", path, results=[ExperimentResult.from_dict(payload["result"])]
        )
    if str(payload.get("schema", "")).startswith("rt-load/"):
        return ReportSource("runtime", path, runtime=payload)
    if str(payload.get("schema", "")).startswith("campaign-manifest/"):
        return ReportSource("manifest", path, runtime=payload)
    raise ValueError(
        f"artifact {path!r} has an unrecognised shape; expected a telemetry "
        "JSON-lines stream, a trace JSON-lines stream (--trace), a results "
        "artifact (--json), a cache artifact, or a runtime artifact"
    )


# ---------------------------------------------------------------- rendering


def render_results(results: Sequence, max_rows: int = 10) -> str:
    """Fairness + reliability + latency tables for experiment results."""
    from ..analysis.tables import Table
    from ..experiments.sweeps import results_table

    sections: List[str] = [results_table(results, title="results").render()]
    latency = Table(
        ["name", "events", "mean_latency", "p95_latency", "max_latency", "mean_rounds"],
        title="delivery latency (time units)",
    )
    for result in results:
        reliability = result.reliability
        latency.add_row(
            name=result.config.name,
            events=len(reliability.events),
            mean_latency=reliability.mean_latency,
            p95_latency=reliability.p95_latency,
            max_latency=reliability.max_latency,
            mean_rounds=reliability.mean_rounds,
        )
    sections.append(latency.render())
    for result in results:
        sections.append(result.fairness.render(max_rows=max_rows))
    return "\n\n".join(sections)


def _series_columns(snapshots: Sequence[TelemetrySnapshot]) -> Tuple[List[str], List[str]]:
    """Untagged counter and gauge names present in the final snapshot."""
    final = snapshots[-1]
    counters = sorted({name for name, tags, _ in final.counters if not tags})
    gauges = sorted({name for name, tags, _ in final.gauges if not tags})
    return counters, gauges


def _fault_timeline(snapshots: Sequence[TelemetrySnapshot]):
    """Fault-event table over the snapshot stream, or ``None`` without faults.

    The fault layer emits ``fault.events`` / ``fault.skipped`` counters
    tagged by ``action`` plus the ``fault.partition_active`` /
    ``fault.perturb_active`` / ``fault.nodes_down`` gauges; this renders
    them as one row per snapshot so the failure pattern reads next to the
    fairness tables.
    """
    from ..analysis.tables import Table

    final = snapshots[-1]
    actions = sorted(
        dict(tags).get("action", "?")
        for name, tags, _ in final.counters
        if name == "fault.events"
    )
    fault_gauges = [
        name
        for name in ("fault.nodes_down", "fault.partition_active", "fault.perturb_active")
        if any(gauge_name == name for gauge_name, _, _ in final.gauges)
    ]
    skipped = any(name == "fault.skipped" for name, _, _ in final.counters)
    if not actions and not fault_gauges and not skipped:
        return None
    columns = ["sequence", "at"] + actions + (["skipped"] if skipped else []) + fault_gauges
    table = Table(columns, title="fault timeline (cumulative events per snapshot)")
    for snapshot in snapshots:
        events = {
            dict(tags).get("action", "?"): value
            for name, tags, value in snapshot.counters
            if name == "fault.events"
        }
        gauges = {name: value for name, tags, value in snapshot.gauges if not tags}
        row: Dict[str, object] = {"sequence": snapshot.sequence, "at": snapshot.at}
        for action in actions:
            row[action] = events.get(action, 0.0)
        if skipped:
            row["skipped"] = sum(
                value for name, _, value in snapshot.counters if name == "fault.skipped"
            )
        for name in fault_gauges:
            row[name] = gauges.get(name, 0.0)
        table.add_row(**row)
    return table


_RECOVERY_COUNTERS = (
    "lazy.pulls_issued",
    "lazy.pulls_served",
    "lazy.recoveries",
    "lazy.events_saved",
)
_RECOVERY_GAUGES = ("lazy.hot_events", "lazy.store_events", "lazy.store_bytes")


def _recovery_table(snapshots: Sequence[TelemetrySnapshot]):
    """Recovery table for lazy-push telemetry, or ``None`` without any.

    The lazy-push nodes emit node-tagged ``lazy.*`` counters (pulls issued/
    served, recovered events, events a digest saved from an eager re-send)
    and phase gauges (hot/store occupancy); this sums them across nodes, one
    row per snapshot, so the pull-recovery behaviour reads as a timeline.
    ``events_saved`` counts known ids seen in digests — payload the eager
    protocol would have re-pushed, i.e. the bytes the lazy phase saved.
    """
    from ..analysis.tables import Table

    final = snapshots[-1]
    present = {name for name, _, _ in final.counters} | {
        name for name, _, _ in final.gauges
    }
    counters = [name for name in _RECOVERY_COUNTERS if name in present]
    gauges = [name for name in _RECOVERY_GAUGES if name in present]
    if not counters and not gauges:
        return None
    def short(name: str) -> str:
        return name.split(".", 1)[1]
    table = Table(
        ["sequence", "at"] + [short(name) for name in counters + gauges],
        title="lazy recovery (cumulative pulls, nodes summed per snapshot)",
    )
    for snapshot in snapshots:
        row: Dict[str, object] = {"sequence": snapshot.sequence, "at": snapshot.at}
        for name in counters:
            row[short(name)] = sum(
                value for counter, _, value in snapshot.counters if counter == name
            )
        for name in gauges:
            row[short(name)] = sum(
                value for gauge, _, value in snapshot.gauges if gauge == name
            )
        table.add_row(**row)
    return table


#: Delivery-latency histograms the domain table understands (simulator and
#: live-runtime spellings).
_DOMAIN_LATENCY_METRICS = ("sim.delivery_latency", "rt.delivery_latency_units")


def _domain_table(snapshots: Sequence[TelemetrySnapshot]):
    """Per-domain delivery table for multi-domain runs, or ``None`` without.

    Multi-domain stacks (see :mod:`repro.topology`) emit ``domain=``-tagged
    delivery-latency histograms plus ``bridge.relayed`` / ``bridge.absorbed``
    / ``bridge.duplicate`` counters tagged with the egress/ingress domain;
    this renders one row per domain and a closing cross-domain totals row,
    so intra- vs cross-domain behaviour reads straight off the report.
    """
    from ..analysis.tables import Table

    final = snapshots[-1]
    latency: Dict[object, object] = {}
    for name, tags, state in final.histograms:
        tag_map = dict(tags)
        if name in _DOMAIN_LATENCY_METRICS and "domain" in tag_map:
            latency[tag_map["domain"]] = state.summary()
    bridges: Dict[object, Dict[str, float]] = {}
    for name, tags, value in final.counters:
        if name in ("bridge.relayed", "bridge.absorbed", "bridge.duplicate"):
            domain = dict(tags).get("domain")
            if domain is not None:
                bridges.setdefault(domain, {})[name] = value
    domains = sorted(set(latency) | set(bridges))
    if not domains:
        return None
    table = Table(
        [
            "domain",
            "deliveries",
            "mean_latency",
            "p95_latency",
            "relayed_out",
            "absorbed_in",
            "duplicates",
        ],
        title="per-domain deliveries + cross-domain bridge traffic (final snapshot)",
    )
    totals = {"deliveries": 0, "relayed": 0.0, "absorbed": 0.0, "duplicates": 0.0}
    for domain in domains:
        summary = latency.get(domain)
        counters = bridges.get(domain, {})
        relayed = counters.get("bridge.relayed", 0.0)
        absorbed = counters.get("bridge.absorbed", 0.0)
        duplicates = counters.get("bridge.duplicate", 0.0)
        totals["deliveries"] += summary.count if summary is not None else 0
        totals["relayed"] += relayed
        totals["absorbed"] += absorbed
        totals["duplicates"] += duplicates
        table.add_row(
            domain=domain,
            deliveries=summary.count if summary is not None else 0,
            mean_latency=summary.mean if summary is not None else 0.0,
            p95_latency=summary.p95 if summary is not None else 0.0,
            relayed_out=relayed,
            absorbed_in=absorbed,
            duplicates=duplicates,
        )
    table.add_row(
        domain="(cross-domain)",
        deliveries=totals["deliveries"],
        mean_latency="",
        p95_latency="",
        relayed_out=totals["relayed"],
        absorbed_in=totals["absorbed"],
        duplicates=totals["duplicates"],
    )
    return table


def render_snapshots(snapshots: Sequence[TelemetrySnapshot], max_rows: int = 10) -> str:
    """Time-series + final-state tables for a snapshot stream."""
    from ..analysis.fairness_report import fairness_table_from_snapshot
    from ..analysis.tables import Table

    if not snapshots:
        return "(no snapshots in artifact)"
    counters, gauges = _series_columns(snapshots)
    series = Table(
        ["sequence", "at"] + counters + gauges,
        title=f"telemetry time series ({len(snapshots)} snapshots)",
    )
    for snapshot in snapshots:
        # One dict per snapshot instead of a linear counter_value/gauge_value
        # scan per cell — snapshots of large runs carry thousands of tagged
        # entries and the per-lookup scan makes rendering quadratic.
        counter_values = {name: value for name, tags, value in snapshot.counters if not tags}
        gauge_values = {name: value for name, tags, value in snapshot.gauges if not tags}
        row: Dict[str, object] = {"sequence": snapshot.sequence, "at": snapshot.at}
        for name in counters:
            row[name] = counter_values.get(name, 0.0)
        for name in gauges:
            row[name] = gauge_values.get(name, 0.0)
        series.add_row(**row)
    sections = [series.render()]

    faults = _fault_timeline(snapshots)
    if faults is not None:
        sections.append(faults.render())

    recovery = _recovery_table(snapshots)
    if recovery is not None:
        sections.append(recovery.render())

    domain = _domain_table(snapshots)
    if domain is not None:
        sections.append(domain.render())

    final = snapshots[-1]
    if final.histograms:
        # Aggregate (untagged) histograms first — per-node ones are many and
        # would otherwise crowd the headline latency metrics past the cap.
        untagged = [entry for entry in final.histograms if not entry[1]]
        tagged = [entry for entry in final.histograms if entry[1]]
        shown = (untagged + tagged)[:max_rows]
        title = "histograms (final snapshot)"
        if len(final.histograms) > len(shown):
            title += f" — {len(shown)} of {len(final.histograms)}"
        latency = Table(
            ["histogram", "count", "mean", "p50", "p95", "p99", "max"],
            title=title,
        )
        for name, tags, state in shown:
            summary = state.summary()
            label = name if not tags else name + "{" + ",".join(
                f"{key}={value}" for key, value in tags
            ) + "}"
            latency.add_row(
                histogram=label,
                count=summary.count,
                mean=summary.mean,
                p50=summary.p50,
                p95=summary.p95,
                p99=summary.p99,
                max=summary.maximum,
            )
        sections.append(latency.render())

    fairness = fairness_table_from_snapshot(final, max_rows=max_rows)
    if fairness is not None:
        sections.append(fairness.render())
    return "\n\n".join(sections)


def _render_runtime(artifact: Dict[str, object]) -> str:
    from ..analysis.tables import format_mapping

    load = artifact.get("load", {})
    rows = {
        "schema": artifact.get("schema"),
        "transport": artifact.get("transport"),
        "system": artifact.get("system"),
        "nodes": artifact.get("nodes"),
        "delivery_ratio": artifact.get("delivery_ratio"),
        "events_per_second": load.get("events_per_second"),
        "deliveries_per_second": load.get("deliveries_per_second"),
        "latency_p50_seconds": load.get("latency_p50_seconds"),
        "latency_p99_seconds": load.get("latency_p99_seconds"),
    }
    fairness = artifact.get("fairness", {})
    if isinstance(fairness, dict):
        for key in ("ratio_jain", "wasted_share"):
            if key in fairness:
                rows[f"fairness_{key}"] = fairness[key]
    rows = {key: value for key, value in rows.items() if value is not None}
    return format_mapping(rows, title="runtime artifact")


def render_report(source: ReportSource, max_rows: int = 10) -> str:
    """Render whatever the loaded artifact contains."""
    if source.kind == "snapshots":
        return render_snapshots(source.snapshots, max_rows=max_rows)
    if source.kind == "results":
        return render_results(source.results, max_rows=max_rows)
    if source.kind == "trace":
        # Trace streams render aggregates here; the `repro trace` command
        # adds per-event infection trees on top of the same analysis.
        from ..tracing import analyze_spans, render_trace

        return render_trace(
            analyze_spans(source.spans), max_events=0, max_rows=max_rows
        )
    if source.kind == "manifest":
        return _render_manifest(source.runtime)
    return _render_runtime(source.runtime)


def _render_manifest(manifest: Dict[str, object]) -> str:
    """Tables for a campaign run manifest (``campaign-manifest/v1``)."""
    from ..analysis.tables import Table

    timing = manifest.get("timing", {}) if isinstance(manifest.get("timing"), dict) else {}
    service_elapsed = timing.get("services", {}) if isinstance(timing, dict) else {}
    services = Table(
        ["service", "status", "points", "cache hits", "computed", "elapsed (s)"],
        title=f"campaign {manifest.get('campaign', '?')} — services "
        f"(repro {manifest.get('version', '?')})",
    )
    for name, record in manifest.get("services", {}).items():
        points = record.get("points", [])
        services.add_row(
            service=name,
            status=record.get("status", "?"),
            points=len(points),
            **{
                "cache hits": record.get("cache_hits", 0),
                "computed": record.get("computed", 0),
                "elapsed (s)": service_elapsed.get(name, ""),
            },
        )
    targets = Table(["target", "status", "inputs", "outputs"], title="targets")
    for name, record in manifest.get("targets", {}).items():
        targets.add_row(
            target=name,
            status=record.get("status", "?"),
            inputs=", ".join(record.get("inputs", [])),
            outputs=", ".join(record.get("outputs", [])),
        )
    totals = manifest.get("totals", {})
    cache = manifest.get("cache", {})
    summary = (
        f"totals: {totals.get('points', 0)} point(s) | "
        f"cache hits: {totals.get('cache_hits', 0)} | "
        f"computed: {totals.get('computed', 0)} | "
        f"cache corrupt: {cache.get('corrupt', 0)} | "
        f"wall: {timing.get('wall_seconds', 0):.2f}s"
        if isinstance(timing.get("wall_seconds"), (int, float))
        else f"totals: {totals.get('points', 0)} point(s)"
    )
    return "\n\n".join([services.render(), targets.render(), summary])
