"""Span records and span kinds.

One :class:`SpanRecord` is one observation about one event at one node: it
was published, relayed, received, received again (``duplicate``), advertised
in a digest, recovered via pull, delivered to the application, or dropped by
the network.  Records stream into a sink as they happen — the sinks are the
ones telemetry snapshots use (:class:`repro.jsonio.MemorySink`, a bounded
ring for tests and live inspection; :class:`repro.jsonio.JsonlSink` for the
artifacts the ``repro trace`` CLI reads back through
:func:`repro.jsonio.read_jsonl`).

Determinism contract: span records contain only protocol time, sequential
span ids, and protocol identifiers — no wall time, no randomness — and the
JSON-lines encoding is canonical (sorted keys, fixed separators), so a
pinned-seed simulator run writes a byte-identical trace stream every time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = [
    "TRACE_SCHEMA",
    "SPAN_KINDS",
    "PUBLISH",
    "RELAY",
    "RECEIVE",
    "DUPLICATE",
    "DIGEST_ADVERT",
    "PULL_RECOVER",
    "DELIVER",
    "DROP",
    "BRIDGE_HOP",
    "SpanRecord",
]

#: Schema tag written into every JSON-lines span record (sniffed by
#: ``repro report`` / ``repro trace`` to recognise trace artifacts).
TRACE_SCHEMA = "trace-span/v1"

# Span kinds, one per observable step of a dissemination.
PUBLISH = "publish"            # the event enters the system at its publisher
RELAY = "relay"                # a node pushes the payload onward (one span per round batch)
RECEIVE = "receive"            # first sight of the payload via eager push
DUPLICATE = "duplicate"        # redundant receive of an already-seen event
DIGEST_ADVERT = "digest-advert"  # the id was advertised in a lazy digest
PULL_RECOVER = "pull-recover"  # first sight of the payload via pull reply
DELIVER = "deliver"            # the application callback fired
DROP = "drop"                  # the network dropped a traced frame (loss/partition/dead)
BRIDGE_HOP = "topology.bridge"  # a bridge node relayed the event across a domain boundary

SPAN_KINDS = (
    PUBLISH,
    RELAY,
    RECEIVE,
    DUPLICATE,
    DIGEST_ADVERT,
    PULL_RECOVER,
    DELIVER,
    DROP,
    BRIDGE_HOP,
)


@dataclass(frozen=True)
class SpanRecord:
    """One tracing observation.

    Attributes
    ----------
    ts:
        Protocol time of the observation (simulated time on the simulator,
        scaled protocol time units on the live runtime).
    kind:
        One of :data:`SPAN_KINDS`.
    trace_id:
        The traced event's id (one trace per published event).
    span_id:
        Run-wide sequential id; parents reference it.
    node:
        The node the observation is about (drop spans use the intended
        recipient).
    parent_id:
        The causing span (``None`` only for ``publish`` roots and orphan
        receives whose context was not propagated).
    hops:
        Network hops the event had taken at this span.
    details:
        Small free-form extras (``peer``, ``via``, ``reason`` ...).
    """

    ts: float
    kind: str
    trace_id: str
    span_id: int
    node: str
    parent_id: Optional[int] = None
    hops: int = 0
    details: Dict[str, Any] = field(default_factory=dict)

    # Hand-written codec, deliberately not the jsonio walker: one record per
    # span is the tracing hot path, and ``parent_id`` / ``details`` are
    # omitted when unset (canonical bytes stay minimal), a rule of its own.

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema": TRACE_SCHEMA,
            "ts": self.ts,
            "kind": self.kind,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "node": self.node,
            "hops": self.hops,
        }
        if self.parent_id is not None:
            payload["parent_id"] = self.parent_id
        if self.details:
            payload["details"] = dict(self.details)
        return payload

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "SpanRecord":
        return SpanRecord(
            ts=float(payload["ts"]),
            kind=str(payload["kind"]),
            trace_id=str(payload["trace_id"]),
            span_id=int(payload["span_id"]),
            node=str(payload["node"]),
            parent_id=(
                int(payload["parent_id"]) if payload.get("parent_id") is not None else None
            ),
            hops=int(payload.get("hops", 0)),
            details=dict(payload.get("details", {})),
        )
