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

from .._exports import lazy_exports

_EXPORTS = {
    "TRACE_SCHEMA": ".spans",
    "SPAN_KINDS": ".spans",
    "PUBLISH": ".spans",
    "RELAY": ".spans",
    "RECEIVE": ".spans",
    "DUPLICATE": ".spans",
    "DIGEST_ADVERT": ".spans",
    "PULL_RECOVER": ".spans",
    "DELIVER": ".spans",
    "DROP": ".spans",
    "TraceContext": ".context",
    "SpanRecord": ".spans",
    "TraceSampler": ".sampler",
    "Tracer": ".tracer",
    "EventTrace": ".analyze",
    "TraceAnalysis": ".analyze",
    "analyze_spans": ".analyze",
    "render_trace": ".analyze",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
