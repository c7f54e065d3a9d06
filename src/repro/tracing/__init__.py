"""Causal dissemination tracing shared by the simulator and the live runtime.

Where the telemetry package answers "how much" (counters, histograms,
snapshots), this package answers "which path": a sampled, trace-context-
propagating span layer that follows *individual events* through every
dissemination kind — eager push, push-pull, lazy digests, and
``gossip.lazy-request``/``-reply`` recovery — on either engine.

The moving parts:

* :class:`TraceContext` rides on messages (simulator ``Message.trace``
  metadata, an optional ``trace`` key on live wire frames) carrying
  ``(trace id = event id, parent span id, hop count)``;
* protocol nodes and networks emit :class:`SpanRecord` observations
  (``publish`` / ``relay`` / ``receive`` / ``duplicate`` / ``digest-advert``
  / ``pull-recover`` / ``deliver`` / ``drop``) through a shared
  :class:`Tracer` into a pluggable sink (``emit(record)`` / ``close()``;
  :class:`repro.jsonio.JsonlSink` and :class:`repro.jsonio.MemorySink` are
  the two shipped, shared with telemetry snapshots);
* sampling is head-based and hash-deterministic (:class:`TraceSampler`):
  the publisher decides once per event, downstream contexts are always
  honoured, and the default rate of 0 means untraced runs carry no
  contexts, emit no spans, and keep physics and cache keys byte-identical;
* :mod:`repro.tracing.analyze` reconstructs per-event infection trees and
  the aggregate hop/latency/redundancy/recovery numbers behind
  ``python -m repro trace``.
"""

from .analyze import EventTrace, TraceAnalysis, analyze_spans, render_trace
from .context import TraceContext
from .sampler import TraceSampler
from .spans import (
    DELIVER,
    DIGEST_ADVERT,
    DROP,
    DUPLICATE,
    PUBLISH,
    PULL_RECOVER,
    RECEIVE,
    RELAY,
    SPAN_KINDS,
    TRACE_SCHEMA,
    SpanRecord,
)
from .tracer import Tracer

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
    "TraceContext",
    "SpanRecord",
    "TraceSampler",
    "Tracer",
    "EventTrace",
    "TraceAnalysis",
    "analyze_spans",
    "render_trace",
]
