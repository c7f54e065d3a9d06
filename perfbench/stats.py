"""Small statistics helpers shared by the runner, the comparer and the tests."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence, Tuple

#: Percentiles a tail may be reported at, lowest first.  The ladder stops at
#: p99 so that a run whose sample count hovers around 10 000 does not flip
#: between p99 and p99.9 from one seed to the next.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of an already sorted sequence."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def tail_percentile(count: int) -> float:
    """Highest percentile of :data:`TAIL_LADDER` with >= 10 samples beyond it.

    With fewer than twenty samples not even the median qualifies; the median
    is returned all the same, because a handful of samples (the repetitions a
    simulator workload fits into one run) says nothing about a tail, and their
    maximum would only measure how noisy the host was.
    """
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) >= MIN_BEYOND * 100.0:  # exact where 1 - pct/100 is not
            best = pct
    return best


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the tail of ``samples`` per :func:`tail_percentile`."""
    ordered = sorted(samples)
    pct = tail_percentile(len(ordered))
    return percentile(ordered, pct), pct


def undisturbed_median(values: Sequence[float]) -> float:
    """Median of the faster half of ``values`` (of all of them, if fewer than two).

    For repetitions of one deterministic computation: whatever else ran on
    the host could only add time to a repetition, never take any away, so the
    faster half is the half it disturbed least.  Still a median, so one
    freakishly fast repetition does not set the number the way a minimum would.
    """
    ordered = sorted(values)
    return statistics.median(ordered[: (len(ordered) + 1) // 2])


def median_of_slices(slices: Sequence[Sequence[float]], pct: float) -> float:
    """Median over the non-empty ``slices`` of each slice's ``pct`` percentile.

    A live window is cut into slices of about a second; a stall of the host
    lands in one or two of them and moves their percentiles a lot, but not
    the median over all slices.  The pooled percentile of the same samples
    moves with every stall: the few hundred deliveries one stall delays are
    the whole tail of a window.
    """
    values = [percentile(sorted(samples), pct) for samples in slices if samples]
    if not values:
        raise ValueError("median_of_slices of no samples")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` the way the driver computes them."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    return abs(q3 - q1) / abs(median) if median else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base`` as a share of ``base`` (<0: better)."""
    if not base:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and spread of one metric's per-run values."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": spread(values), "runs": len(values)}
