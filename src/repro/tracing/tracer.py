"""The tracer facade protocol nodes and networks record through.

One :class:`Tracer` serves a whole run (all nodes share it, exactly like the
telemetry store): it owns the span-id counter, the head-based sampler, the
clock, and the sink.  Protocol code holds ``self.tracer`` (``None`` unless a
run opted in) and pays a single ``is not None`` check on untraced paths —
the same pre-bound-instrument discipline the telemetry layer uses.

The tracer draws no randomness and schedules nothing; with a deterministic
clock (the simulator's) its output is a pure function of the run.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..jsonio import MemorySink
from .sampler import TraceSampler
from .spans import DROP, SpanRecord

__all__ = ["Tracer"]


class Tracer:
    """Emits :class:`~repro.tracing.spans.SpanRecord` objects into a sink.

    Parameters
    ----------
    sink:
        Destination for span records (defaults to a memory ring).
    sample_rate:
        Head-sampling rate in ``[0, 1]``; 0 records nothing new (propagated
        contexts are still honoured), 1 traces every published event.
    time_source:
        Zero-argument callable yielding protocol time; the runner/host
        attach the engine clock via :meth:`attach_clock`.
    salt:
        Sampler salt (see :class:`~repro.tracing.sampler.TraceSampler`).
    """

    def __init__(
        self,
        sink=None,
        sample_rate: float = 0.0,
        time_source: Optional[Callable[[], float]] = None,
        salt: str = "",
    ) -> None:
        self.sink = sink if sink is not None else MemorySink()
        self.sampler = TraceSampler(sample_rate, salt=salt)
        self._time = time_source if time_source is not None else (lambda: 0.0)
        self._next_span_id = 0
        self.spans_emitted = 0

    def attach_clock(self, time_source: Callable[[], float]) -> None:
        """Point the tracer at the engine's clock (simulated or scaled wall)."""
        self._time = time_source

    @property
    def sample_rate(self) -> float:
        """The head-sampling rate this tracer was built with."""
        return self.sampler.rate

    def sampled(self, trace_id: str) -> bool:
        """Head decision for a new trace; made once, at the publisher."""
        return self.sampler.sampled(trace_id)

    def emit(
        self,
        kind: str,
        trace_id: str,
        node: str,
        parent_id: Optional[int] = None,
        hops: int = 0,
        **details: Any,
    ) -> int:
        """Record one span and return its id (for children to parent on)."""
        span_id = self._next_span_id
        self._next_span_id += 1
        self.spans_emitted += 1
        self.sink.emit(
            SpanRecord(
                ts=self._time(),
                kind=kind,
                trace_id=trace_id,
                span_id=span_id,
                node=node,
                parent_id=parent_id,
                hops=hops,
                details=details,
            )
        )
        return span_id

    def record_drop(self, message: Any, reason: str) -> None:
        """Drop spans for every traced event on a dropped message.

        Called by both network fabrics with the in-flight message (duck-typed:
        ``trace`` / ``sender`` / ``recipient`` / ``kind``) and a reason
        (``"lost"``, ``"partition"``, ``"dead"``).  Attribution is to the
        intended recipient — the node the infection failed to reach.
        """
        contexts = getattr(message, "trace", None)
        if not contexts:
            return
        for ctx in contexts:
            self.emit(
                DROP,
                ctx.trace_id,
                message.recipient,
                parent_id=ctx.parent_span,
                hops=ctx.hops,
                peer=message.sender,
                message_kind=message.kind,
                reason=reason,
            )

    def close(self) -> None:
        """Close the underlying sink (flushes JSON-lines files)."""
        self.sink.close()
