"""Typed metric instruments: Counter, Gauge, Histogram.

The histogram is the instrument that earns this module its existence.  The
pre-telemetry implementation appended every observation to a list and
re-sorted the full list on each ``summary()`` call — O(n) memory and
O(n log n) summaries, which is exactly what a "heavy traffic" runtime cannot
afford.  The streaming :class:`Histogram` here is bounded:

* exact ``count``/``sum``/``min``/``max`` are folded incrementally;
* sample *values* live briefly in a small raw buffer (``fold_threshold``
  entries) and are then folded into fixed geometric buckets (about 9% wide),
  so memory is O(buckets), independent of the observation count;
* quantiles are exact while everything still fits in the raw buffer (the
  common case for end-of-run summaries of small experiments, and the case
  the legacy tests pin), and bucket-interpolated afterwards.

The hot path — :meth:`Histogram.observe` — is one list append plus a length
check; the bucketing work happens once per ``fold_threshold`` observations
on an already-sorted buffer, so the amortised per-record cost stays at the
level of the old ``samples.append(float(value))`` (measured by
``benchmarks/bench_metrics_overhead.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramState",
    "HistogramSummary",
    "percentile",
]


@dataclass(slots=True)
class Counter:
    """Monotonically increasing counter."""

    value: float = 0.0

    def increment(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only move forward; use a Gauge for decreasing values")
        self.value += amount


@dataclass(slots=True)
class Gauge:
    """Latest-value metric."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class HistogramSummary:
    """Summary statistics of a histogram's observations."""

    count: int
    mean: float
    minimum: float
    maximum: float
    stddev: float
    p50: float
    p95: float
    p99: float


def percentile(ordered: Sequence[float], quantile: float) -> float:
    """Linear-interpolation percentile of an already sorted sample list.

    ``quantile`` is validated first, so an out-of-range quantile raises even
    for an empty input; an empty input at a valid quantile returns 0.0, a
    single element is its own percentile at every quantile, and 0.0/1.0 map
    exactly onto the minimum/maximum.
    """
    if not 0.0 <= quantile <= 1.0:
        raise ValueError("quantile must be within [0, 1]")
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = quantile * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return ordered[lower]
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def _geometric_bounds(smallest: float, largest: float, factor: float) -> Tuple[float, ...]:
    bounds: List[float] = []
    bound = smallest
    while bound <= largest:
        bounds.append(bound)
        bound *= factor
    return tuple(bounds)


#: Shared bucket boundaries for positive magnitudes: geometric from 1e-9 to
#: beyond 1e12 with a 2**(1/8) growth factor (~9% relative bucket width).
#: One tuple for every histogram in the process keeps per-instrument memory
#: at the bucket-count dictionaries alone.
_BOUNDS: Tuple[float, ...] = _geometric_bounds(1e-9, 1e12, 2.0 ** 0.125)

#: How many raw samples accumulate before they are folded into buckets.
_FOLD_THRESHOLD = 2048


@dataclass(frozen=True)
class HistogramState:
    """Immutable, JSON-round-trippable state of a streaming histogram.

    ``positive``/``negative`` are ``(bucket_index, count)`` pairs over the
    shared geometric bounds (negative magnitudes are mirrored); ``zeros``
    counts exact zero observations.  The state is what snapshots carry, so
    it is bounded regardless of how many samples were observed.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = 0.0
    maximum: float = 0.0
    zeros: int = 0
    positive: Tuple[Tuple[int, int], ...] = ()
    negative: Tuple[Tuple[int, int], ...] = ()

    # ------------------------------------------------------------- summaries

    def _segments(self) -> List[Tuple[float, float, int]]:
        """Ordered ``(low, high, count)`` spans covering every observation."""
        segments: List[Tuple[float, float, int]] = []
        for index, count in sorted(self.negative, reverse=True):
            low, high = _bucket_span(index)
            segments.append((-high, -low, count))
        if self.zeros:
            segments.append((0.0, 0.0, self.zeros))
        for index, count in sorted(self.positive):
            low, high = _bucket_span(index)
            segments.append((low, high, count))
        return segments

    def quantile(self, quantile: float) -> float:
        """Bucket-interpolated quantile, clamped to the exact min/max."""
        if not 0.0 <= quantile <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return 0.0
        if quantile == 0.0:
            return self.minimum
        if quantile == 1.0:
            return self.maximum
        rank = quantile * (self.count - 1)
        cumulative = 0
        for low, high, count in self._segments():
            if rank < cumulative + count:
                fraction = (rank - cumulative + 0.5) / count
                value = low + (high - low) * fraction
                return min(self.maximum, max(self.minimum, value))
            cumulative += count
        return self.maximum

    def summary(self) -> HistogramSummary:
        """Summary statistics (quantiles and stddev are bucket estimates)."""
        if self.count == 0:
            return HistogramSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        mean = self.total / self.count
        sumsq = 0.0
        for low, high, count in self._segments():
            midpoint = (low + high) / 2.0
            sumsq += midpoint * midpoint * count
        variance = max(sumsq / self.count - mean * mean, 0.0)
        return HistogramSummary(
            count=self.count,
            mean=mean,
            minimum=self.minimum,
            maximum=self.maximum,
            stddev=math.sqrt(variance),
            p50=self.quantile(0.50),
            p95=self.quantile(0.95),
            p99=self.quantile(0.99),
        )


def _bucket_span(index: int) -> Tuple[float, float]:
    """Magnitude interval covered by bucket ``index`` (see :func:`_bucket_index`)."""
    if index <= 0:
        return (0.0, _BOUNDS[0])
    if index >= len(_BOUNDS):
        return (_BOUNDS[-1], _BOUNDS[-1] * 2.0 ** 0.125)
    return (_BOUNDS[index - 1], _BOUNDS[index])


class Histogram:
    """Bounded streaming histogram with an O(1)-memory hot path.

    ``observe`` writes into a raw buffer (starting at 64 slots, doubling in
    place up to ``fold_threshold``) through a pre-bound closure — one
    C-level ``list`` store plus an integer bump, with the buffer-full branch
    handled by Python 3.11's zero-cost ``try``/``except`` — so the
    per-record cost matches a bare ``list.append``.  When the full-size
    buffer fills, the span is folded: sorted once (C timsort), exact
    count/sum/min/max updated, and values counted into the shared geometric
    buckets with one bisect per *bucket boundary*, not per sample
    (≈10 ns/record amortised).  ``summary()`` is exact while nothing has
    been folded (the legacy behaviour for small samples) and a
    bucket-interpolated estimate afterwards; ``state()`` merges any pending
    samples *non-destructively* into copied bucket counts, so snapshots are
    bounded yet never change what later summaries report.

    The closure-bound hot path means instances are not picklable; snapshots
    carry the picklable :class:`HistogramState` instead.
    """

    __slots__ = (
        "observe",
        "_peek",
        "_pending_len",
        "_fold_threshold",
        "_count",
        "_total",
        "_minimum",
        "_maximum",
        "_zeros",
        "_positive",
        "_negative",
    )

    def __init__(self, fold_threshold: int = _FOLD_THRESHOLD) -> None:
        if fold_threshold <= 0:
            raise ValueError("fold_threshold must be positive")
        self._fold_threshold = fold_threshold
        self._count = 0
        self._total = 0.0
        self._minimum = math.inf
        self._maximum = -math.inf
        self._zeros = 0
        self._positive: Dict[int, int] = {}
        self._negative: Dict[int, int] = {}

        # The raw buffer starts small and doubles (in place, preserving the
        # closures' reference) up to the fold threshold, so a mostly-idle
        # tagged instrument costs tens of floats, not thousands.
        buffer: List[float] = [0.0] * min(64, fold_threshold)
        cursor = 0
        fold_span = self._fold_span

        def observe(value: float, _buffer=buffer) -> None:
            """Record one sample (amortised O(1) time, O(buckets) memory)."""
            nonlocal cursor
            try:
                _buffer[cursor] = value
            except IndexError:
                if len(_buffer) >= fold_threshold:
                    fold_span(_buffer, 0, len(_buffer))
                    _buffer[0] = value
                    cursor = 1
                    return
                _buffer.extend(
                    [0.0] * min(len(_buffer), fold_threshold - len(_buffer))
                )
                _buffer[cursor] = value
            cursor += 1

        self.observe = observe
        self._peek = lambda: buffer[:cursor]
        self._pending_len = lambda: cursor

    # -------------------------------------------------------------- folding

    def _fold_span(self, buffer: List[float], start: int, stop: int) -> None:
        """Fold ``buffer[start:stop]`` into the stats and bucket counts."""
        if stop <= start:
            return
        if start == 0 and stop == len(buffer):
            ordered = buffer  # full buffer: sort in place, no copy
            ordered.sort()
        else:
            ordered = sorted(buffer[start:stop])
        size = len(ordered)
        self._count += size
        self._total += sum(ordered)
        if ordered[0] < self._minimum:
            self._minimum = float(ordered[0])
        if ordered[size - 1] > self._maximum:
            self._maximum = float(ordered[size - 1])
        self._zeros += _count_span(ordered, size, self._positive, self._negative)

    # -------------------------------------------------------------- reading

    @property
    def pending_count(self) -> int:
        """Raw samples currently buffered (bounded by the fold threshold)."""
        return self._pending_len()

    @property
    def bucket_count(self) -> int:
        """Non-empty buckets currently held (the O(buckets) memory bound)."""
        return len(self._positive) + len(self._negative) + (1 if self._zeros else 0)

    def state(self) -> HistogramState:
        """The bounded, immutable state covering every observation.

        Non-destructive: pending raw samples are merged into a *copy* of
        the bucket counts, so taking a snapshot never degrades later
        ``summary()`` calls from exact to bucket-estimated — observability
        must not alter what a run reports.
        """
        pending = self._peek()
        if self._count == 0 and not pending:
            return HistogramState()
        count, total = self._count, self._total
        minimum, maximum = self._minimum, self._maximum
        zeros = self._zeros
        positive, negative = self._positive, self._negative
        if pending:
            ordered = sorted(pending)
            count += len(ordered)
            total += sum(ordered)
            minimum = min(minimum, ordered[0])
            maximum = max(maximum, ordered[-1])
            positive = dict(positive)
            negative = dict(negative)
            zeros += _count_span(ordered, len(ordered), positive, negative)
        return HistogramState(
            count=count,
            total=total,
            minimum=float(minimum),
            maximum=float(maximum),
            zeros=zeros,
            positive=tuple(sorted(positive.items())),
            negative=tuple(sorted(negative.items())),
        )

    def summary(self) -> HistogramSummary:
        """Summary statistics; exact until the first fold, estimated after."""
        if self._count == 0:
            # Nothing folded yet: compute the exact summary the legacy
            # list-backed histogram produced, including exact percentiles.
            ordered = sorted(self._peek())
            if not ordered:
                return HistogramSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
            count = len(ordered)
            mean = sum(ordered) / count
            variance = sum((sample - mean) ** 2 for sample in ordered) / count
            return HistogramSummary(
                count=count,
                mean=mean,
                minimum=ordered[0],
                maximum=ordered[-1],
                stddev=math.sqrt(variance),
                p50=percentile(ordered, 0.50),
                p95=percentile(ordered, 0.95),
                p99=percentile(ordered, 0.99),
            )
        return self.state().summary()


def _count_span(
    ordered: Sequence[float], size: int, positive: Dict[int, int], negative: Dict[int, int]
) -> int:
    """Count a sorted span into sign-separated buckets; returns the zero count."""
    first_nonneg = bisect_left(ordered, 0.0, 0, size)
    if first_nonneg > 0:
        # Negative values: mirror magnitudes into the negative buckets.
        magnitudes = sorted(-value for value in ordered[:first_nonneg])
        _count_sorted_magnitudes(magnitudes, 0, len(magnitudes), negative)
    first_pos = bisect_right(ordered, 0.0, first_nonneg, size)
    if first_pos < size:
        _count_sorted_magnitudes(ordered, first_pos, size, positive)
    return first_pos - first_nonneg


def _count_sorted_magnitudes(
    ordered: Sequence[float], position: int, stop: int, buckets: Dict[int, int]
) -> None:
    """Count sorted positive magnitudes in ``ordered[position:stop]`` into
    ``buckets``, one bisect per *boundary*.

    Walking bucket boundaries over the sorted span costs O(spanned buckets ×
    log n) instead of one bisect per sample, and taking ``position``/``stop``
    avoids slicing a copy of the fold buffer — together that keeps the
    amortised fold cost near the sort itself.
    """
    while position < stop:
        index = bisect_right(_BOUNDS, ordered[position])
        if index >= len(_BOUNDS):
            # Overflow bucket: everything from here up belongs to it.
            buckets[index] = buckets.get(index, 0) + (stop - position)
            return
        upper = _BOUNDS[index]
        next_position = bisect_right(ordered, upper, position, stop)
        if next_position == position:  # pragma: no cover - defensive
            next_position = position + 1
        buckets[index] = buckets.get(index, 0) + (next_position - position)
        position = next_position
