"""Post-hoc reporting: render tables from shipped artifacts, nothing re-run.

Backs ``python -m repro report ARTIFACT`` and ``repro trace``.  Every
artifact the program writes carries a ``"schema"`` tag
(:func:`~repro.jsonio.read_schema`), and :func:`artifact_kinds` maps each
tag to the reader that decodes the file and the renderer that prints it:
telemetry snapshot and trace span streams (JSON lines), results artifacts
and cache entries (``--json`` / ``.repro-cache``, one tag), the runtime
commands' ``--json`` and campaign run manifests.

Results loaded from an artifact and results loaded from the cache render
through the same code path, so the tables are identical for identical
result payloads — the property ``tests/test_telemetry.py`` pins.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

from ..jsonio import decode, load_json, read_jsonl, read_schema
from .snapshot import SNAPSHOT_SCHEMA, TelemetrySnapshot

__all__ = [
    "Artifact",
    "ArtifactKind",
    "artifact_kinds",
    "load_artifact",
    "render_report",
    "render_results",
    "render_snapshots",
]


class Artifact(NamedTuple):
    """One loaded artifact: its schema tag and the value its reader decoded."""

    schema: object
    value: Any


class ArtifactKind(NamedTuple):
    """How the files of one schema tag are read and rendered."""

    read: Callable[[str], Any]  # path -> decoded value; ValueError naming the path
    render: Callable[[Any, int], str]  # (value, max_rows) -> report text


def load_artifact(path: str) -> Artifact:
    """Read the artifact at ``path`` by its schema tag.

    Every problem — an unreadable file, invalid JSON, an unknown tag, a
    record its decoder rejects — raises one ``ValueError`` naming the path.
    """
    kinds = artifact_kinds()
    tag = read_schema(path, ValueError, "artifact")
    expected = ", ".join(repr(known) for known in kinds)
    if tag is None:
        raise ValueError(
            f"artifact {path!r} has an unrecognised shape (no schema tag); expected {expected}"
        )
    if type(tag) not in (str, int) or tag not in kinds:  # not True for 1, nor a list
        raise ValueError(f"artifact {path!r} has schema {tag!r}; expected {expected}")
    return Artifact(tag, kinds[tag].read(path))


def render_report(artifact: Artifact, max_rows: int = 10) -> str:
    """Render whatever the loaded artifact contains."""
    return artifact_kinds()[artifact.schema].render(artifact.value, max_rows)


def _document(record_class, schema: str, what: str) -> Callable[[str], Any]:
    """Reader of a whole-file record written as ``{"schema": ..., **encode(record)}``."""

    def read(path: str):
        payload = load_json(path, schema, ValueError, what)
        try:
            return decode(record_class, payload, ValueError, what, schema)
        except ValueError as problem:
            raise ValueError(f"{path}: {problem}") from None

    return read


def _read_results(path: str) -> list:
    """Results of a ``--json`` artifact (``results``) or a cache entry (``result``)."""
    from ..experiments.cache import ARTIFACT_SCHEMA
    from ..experiments.runner import ExperimentResult

    payload = load_json(path, ARTIFACT_SCHEMA, ValueError, "results artifact")
    try:
        if "results" in payload:
            return [ExperimentResult.from_dict(entry) for entry in payload["results"]]
        return [ExperimentResult.from_dict(payload["result"])]
    except (KeyError, TypeError, ValueError, AttributeError) as problem:
        # ExperimentResult.from_dict is hand-written, not the total walker.
        raise ValueError(
            f"results artifact {path!r} is malformed: {type(problem).__name__}: {problem}"
        ) from None


@lru_cache(maxsize=None)
def artifact_kinds() -> Dict[object, ArtifactKind]:
    """Schema tag -> :class:`ArtifactKind`, for every artifact the program writes."""
    from ..campaign.manifest import MANIFEST_SCHEMA, RunManifest
    from ..experiments.cache import ARTIFACT_SCHEMA
    from ..runtime.loadgen import RUNTIME_ARTIFACT_SCHEMA, RuntimeArtifact
    from ..tracing import TRACE_SCHEMA, SpanRecord, analyze_spans, render_trace

    return {
        SNAPSHOT_SCHEMA: ArtifactKind(
            lambda path: read_jsonl(path, SNAPSHOT_SCHEMA, TelemetrySnapshot.from_dict),
            render_snapshots,
        ),
        TRACE_SCHEMA: ArtifactKind(
            lambda path: read_jsonl(path, TRACE_SCHEMA, SpanRecord.from_dict),
            # Aggregates only: `repro trace` adds the per-event infection trees.
            lambda spans, max_rows: render_trace(
                analyze_spans(spans), max_events=0, max_rows=max_rows
            ),
        ),
        ARTIFACT_SCHEMA: ArtifactKind(_read_results, render_results),
        RUNTIME_ARTIFACT_SCHEMA: ArtifactKind(
            _document(RuntimeArtifact, RUNTIME_ARTIFACT_SCHEMA, "runtime artifact"),
            _render_runtime,
        ),
        MANIFEST_SCHEMA: ArtifactKind(
            _document(RunManifest, MANIFEST_SCHEMA, "campaign manifest"), _render_manifest
        ),
    }


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


def _render_runtime(artifact, max_rows: int) -> str:
    from ..analysis.tables import format_mapping
    from ..runtime.loadgen import RUNTIME_ARTIFACT_SCHEMA

    load = artifact.load
    rows = {
        "schema": RUNTIME_ARTIFACT_SCHEMA,
        "transport": artifact.transport,
        "system": artifact.system,
        "nodes": artifact.nodes,
        "delivery_ratio": artifact.delivery_ratio,
        "events_per_second": load.events_per_second,
        "deliveries_per_second": load.deliveries_per_second,
        "latency_p50_seconds": load.latency_p50_seconds,
        "latency_p99_seconds": load.latency_p99_seconds,
        "fairness_ratio_jain": artifact.fairness.ratio_jain,
        "fairness_wasted_share": artifact.fairness.wasted_share,
    }
    return format_mapping(rows, title="runtime artifact")


def _render_manifest(manifest, max_rows: int) -> str:
    """Tables for a campaign run manifest (:class:`~repro.campaign.manifest.RunManifest`)."""
    from ..analysis.tables import Table

    timing = manifest.timing
    services = Table(
        ["service", "status", "points", "cache hits", "computed", "elapsed (s)"],
        title=f"campaign {manifest.campaign} — services (repro {manifest.version})",
    )
    for name, record in manifest.services.items():
        services.add_row(
            service=name,
            status=record.status,
            points=len(record.points),
            **{
                "cache hits": record.cache_hits,
                "computed": record.computed,
                "elapsed (s)": timing.services.get(name, ""),
            },
        )
    targets = Table(["target", "status", "inputs", "outputs"], title="targets")
    for name, record in manifest.targets.items():
        targets.add_row(
            target=name,
            status=record.status,
            inputs=", ".join(record.inputs),
            outputs=", ".join(record.outputs),
        )
    totals = manifest.totals()
    summary = (
        f"totals: {totals['points']} point(s) | cache hits: {totals['cache_hits']} | "
        f"computed: {totals['computed']} | cache corrupt: "
        f"{manifest.cache_stats.get('corrupt', 0)} | wall: {timing.wall_seconds:.2f}s"
    )
    return "\n\n".join([services.render(), targets.render(), summary])
