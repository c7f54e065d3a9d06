"""Trace analysis: infection trees and dissemination statistics from spans.

Backs ``python -m repro trace``.  Input is a span stream (from a
:class:`~repro.jsonio.MemorySink` or a JSON-lines trace
artifact); output is per-event infection trees (who infected whom, hop by
hop, including drops and pull recoveries) plus the aggregate numbers the
paper's dissemination claims are phrased in: hop-count distribution, path
latency, redundancy ratio (duplicate receives per delivery), and recovery
attribution (eager push vs pull).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from .spans import (
    BRIDGE_HOP,
    DELIVER,
    DIGEST_ADVERT,
    DROP,
    DUPLICATE,
    PUBLISH,
    PULL_RECOVER,
    RECEIVE,
    RELAY,
    SpanRecord,
)

__all__ = ["EventTrace", "TraceAnalysis", "analyze_spans", "render_trace"]


@dataclass
class EventTrace:
    """All spans of one traced event, indexed for tree reconstruction."""

    trace_id: str
    spans: List[SpanRecord] = field(default_factory=list)

    def _index(self) -> None:
        self.by_id: Dict[int, SpanRecord] = {span.span_id: span for span in self.spans}
        self.children: Dict[int, List[SpanRecord]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                self.children.setdefault(span.parent_id, []).append(span)
        for siblings in self.children.values():
            siblings.sort(key=lambda span: (span.ts, span.span_id))

    @property
    def root(self) -> Optional[SpanRecord]:
        """The ``publish`` span (the infection tree's root), if present."""
        for span in self.spans:
            if span.kind == PUBLISH:
                return span
        return None

    def kind_count(self, kind: str) -> int:
        return sum(1 for span in self.spans if span.kind == kind)

    def reaches_root(self, span: SpanRecord) -> bool:
        """Whether the span's parent chain ends at the ``publish`` root."""
        seen: Set[int] = set()
        current: Optional[SpanRecord] = span
        while current is not None:
            if current.kind == PUBLISH:
                return True
            if current.span_id in seen or current.parent_id is None:
                return False
            seen.add(current.span_id)
            current = self.by_id.get(current.parent_id)
        return False

    def unreachable_deliveries(self) -> List[SpanRecord]:
        """Deliver spans that do not chain back to the publish root."""
        return [
            span
            for span in self.spans
            if span.kind == DELIVER and not self.reaches_root(span)
        ]

    def delivery_latencies(self) -> List[float]:
        """Per-delivery ``deliver.ts - publish.ts`` (empty without a root)."""
        root = self.root
        if root is None:
            return []
        return [span.ts - root.ts for span in self.spans if span.kind == DELIVER]



@dataclass
class TraceAnalysis:
    """Per-event traces plus stream-wide aggregates."""

    events: Dict[str, EventTrace]
    total_spans: int

    def totals(self) -> Dict[str, float]:
        """Aggregate dissemination numbers over every traced event."""
        deliveries = duplicates = drops = recoveries = relays = adverts = bridge_hops = 0
        hop_counts: List[int] = []
        latencies: List[float] = []
        drop_reasons: Dict[str, int] = {}
        for event in self.events.values():
            deliveries += event.kind_count(DELIVER)
            duplicates += event.kind_count(DUPLICATE)
            recoveries += event.kind_count(PULL_RECOVER)
            relays += event.kind_count(RELAY)
            adverts += event.kind_count(DIGEST_ADVERT)
            bridge_hops += event.kind_count(BRIDGE_HOP)
            latencies.extend(event.delivery_latencies())
            for span in event.spans:
                if span.kind == DELIVER:
                    hop_counts.append(span.hops)
                elif span.kind == DROP:
                    drops += 1
                    reason = str(span.details.get("reason", "?"))
                    drop_reasons[reason] = drop_reasons.get(reason, 0) + 1
        eager = deliveries - sum(
            1
            for event in self.events.values()
            for span in event.spans
            if span.kind == DELIVER
            and span.parent_id is not None
            and event.by_id.get(span.parent_id) is not None
            and event.by_id[span.parent_id].kind == PULL_RECOVER
        )
        totals: Dict[str, float] = {
            "events_traced": len(self.events),
            "spans": self.total_spans,
            "deliveries": deliveries,
            "duplicate_receives": duplicates,
            "redundancy_ratio": duplicates / deliveries if deliveries else 0.0,
            "relays": relays,
            "digest_adverts": adverts,
            "bridge_hops": bridge_hops,
            "drops": drops,
            "pull_recoveries": recoveries,
            "deliveries_via_eager": eager,
            "deliveries_via_pull": deliveries - eager,
        }
        if hop_counts:
            hop_counts.sort()
            totals["hops_mean"] = sum(hop_counts) / len(hop_counts)
            totals["hops_p50"] = hop_counts[len(hop_counts) // 2]
            totals["hops_max"] = hop_counts[-1]
        if latencies:
            latencies.sort()
            totals["latency_mean"] = sum(latencies) / len(latencies)
            totals["latency_p95"] = latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))]
            totals["latency_max"] = latencies[-1]
        for reason, count in sorted(drop_reasons.items()):
            totals[f"drops_{reason}"] = count
        return totals


def analyze_spans(spans: Sequence[SpanRecord]) -> TraceAnalysis:
    """Group a span stream by trace and index each event's infection tree."""
    events: Dict[str, EventTrace] = {}
    for span in spans:
        events.setdefault(span.trace_id, EventTrace(span.trace_id)).spans.append(span)
    for event in events.values():
        event.spans.sort(key=lambda span: (span.ts, span.span_id))
        event._index()
    # Present events in publication order (root ts, then id for orphans).
    ordered = sorted(
        events.values(),
        key=lambda event: (
            event.root.ts if event.root is not None else float("inf"),
            event.trace_id,
        ),
    )
    return TraceAnalysis(
        events={event.trace_id: event for event in ordered},
        total_spans=len(spans),
    )


# ---------------------------------------------------------------- rendering


def _span_line(span: SpanRecord) -> str:
    parts = [f"{span.kind} @{span.node} t={span.ts:.3f}"]
    if span.kind in (RECEIVE, DUPLICATE, PULL_RECOVER, DROP):
        parts.append(f"hop {span.hops}")
    extras = []
    for key in ("peer", "via", "reason", "message_kind", "fanout", "domain", "to_domain"):
        if key in span.details:
            extras.append(f"{key}={span.details[key]}")
    if extras:
        parts.append("(" + ", ".join(extras) + ")")
    return " ".join(parts)


def _render_subtree(event: EventTrace, span: SpanRecord, prefix: str, lines: List[str]) -> None:
    children = event.children.get(span.span_id, [])
    for index, child in enumerate(children):
        last = index == len(children) - 1
        branch = "└─ " if last else "├─ "
        lines.append(prefix + branch + _span_line(child))
        _render_subtree(event, child, prefix + ("   " if last else "│  "), lines)


def render_event_tree(event: EventTrace) -> str:
    """One event's infection tree as an indented text tree."""
    lines: List[str] = []
    root = event.root
    if root is None:
        lines.append(f"trace {event.trace_id} — no publish span (orphan fragments)")
        roots = [span for span in event.spans if span.parent_id not in event.by_id]
    else:
        lines.append(
            f"trace {event.trace_id} — published by {root.node} at t={root.ts:.3f}"
        )
        roots = [root]
    for span in roots:
        if root is None or span is not root:
            lines.append(_span_line(span))
        _render_subtree(event, span, "", lines)
    return "\n".join(lines)


def render_trace(
    analysis: TraceAnalysis,
    event: Optional[str] = None,
    max_events: int = 3,
    max_rows: int = 10,
) -> str:
    """Per-event trees plus aggregate tables (the ``repro trace`` output)."""
    from ..analysis.tables import Table, format_mapping

    if not analysis.events:
        return "(no spans in trace)"
    sections: List[str] = []

    if event is not None:
        selected = analysis.events.get(event)
        if selected is None:
            known = ", ".join(list(analysis.events)[:max_rows])
            raise ValueError(
                f"trace has no event {event!r}; traced events include: {known}"
            )
        sections.append(render_event_tree(selected))
    elif max_events <= 0:
        # Aggregate-only mode (`repro report` on a trace stream).
        sections.append(
            f"{len(analysis.events)} traced event(s); render infection trees "
            "with `python -m repro trace ARTIFACT`"
        )
    else:
        for trace in list(analysis.events.values())[:max_events]:
            sections.append(render_event_tree(trace))
        if len(analysis.events) > max_events:
            sections.append(
                f"... {len(analysis.events) - max_events} more traced event(s); "
                "use --event ID or --max-events to see them"
            )

    per_event = Table(
        [
            "event",
            "publisher",
            "deliveries",
            "duplicates",
            "drops",
            "pulls",
            "max_hops",
            "max_latency",
        ],
        title="per-event dissemination",
    )
    for trace in list(analysis.events.values())[:max_rows]:
        root = trace.root
        latencies = trace.delivery_latencies()
        hops = [span.hops for span in trace.spans if span.kind == DELIVER]
        per_event.add_row(
            event=trace.trace_id,
            publisher=root.node if root is not None else "?",
            deliveries=trace.kind_count(DELIVER),
            duplicates=trace.kind_count(DUPLICATE),
            drops=trace.kind_count(DROP),
            pulls=trace.kind_count(PULL_RECOVER),
            max_hops=max(hops) if hops else 0,
            max_latency=max(latencies) if latencies else 0.0,
        )
    sections.append(per_event.render())
    sections.append(format_mapping(analysis.totals(), title="trace aggregates"))
    return "\n\n".join(sections)
