"""Trace context: the causal coordinates a message carries for one event.

A :class:`TraceContext` is the piece of tracing state that *travels*: it
names the trace (the event id — one trace per published event), the span
that caused this message to exist (the sender's ``relay`` /
``digest-advert`` span), and how many hops the event has taken so far.
Receivers parent their own spans on ``parent_span`` and extend the hop
count, which is what lets :mod:`repro.tracing.analyze` reconstruct the
infection tree purely from the span stream.

This module is dependency-free on purpose: the simulator's network attaches
context tuples to in-flight messages and the wire codec serializes them, and
neither may pull the rest of the tracing package (or anything above it) into
their import graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TraceContext"]


@dataclass(frozen=True)
class TraceContext:
    """Causal coordinates for one event on one message.

    Attributes
    ----------
    trace_id:
        The trace identifier; always the event id of the event being traced.
    parent_span:
        Span id of the sender-side span (``relay``, ``digest-advert``) that
        put this event on the wire; receiver spans use it as their parent.
    hops:
        Network hops the event has taken when this message arrives (the
        publisher's own copy is hop 0).
    """

    trace_id: str
    parent_span: int
    hops: int
