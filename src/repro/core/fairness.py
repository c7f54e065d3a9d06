"""Fairness metrics.

Figure 1 of the paper states the fairness criterion: the ratio
``contribution / benefit`` of each peer must be *equivalent* across the
system.  This module turns that statement into measurable quantities:

* per-node contribution/benefit ratios;
* dispersion indices over those ratios — Jain's fairness index, the Gini
  coefficient, the coefficient of variation, and the max/min spread;
* the same indices over raw contributions, which measure *load balancing*
  (§3.1) rather than fairness, so experiments can show the two notions
  diverging (experiment S2, ``benchmarks/bench_s2_load_vs_fairness.py``).

All functions accept plain ``{node_id: value}`` mappings so they are usable
on ledger outputs, on windowed differences, and on synthetic data in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

__all__ = [
    "FairnessReport",
    "contribution_benefit_ratios",
    "smoothed_ratios",
    "jain_index",
    "gini_coefficient",
    "coefficient_of_variation",
    "max_min_spread",
    "normalised_ratio_deviation",
    "wasted_contribution_share",
    "evaluate_fairness",
]

#: Value used for the ratio of a node with zero benefit but non-zero
#: contribution; such a node works for the system and gets nothing back,
#: which is the extreme unfairness case the paper describes for Scribe's
#: interior nodes.  Keeping it finite keeps the indices well defined.
_ZERO_BENEFIT_RATIO_CAP = 1e6


def contribution_benefit_ratios(
    contributions: Mapping[str, float],
    benefits: Mapping[str, float],
    zero_benefit_cap: float = _ZERO_BENEFIT_RATIO_CAP,
) -> Dict[str, float]:
    """Per-node ``contribution / benefit`` ratio (Figure 1).

    Nodes that neither contribute nor benefit are reported with ratio 0 (they
    are simply absent from the system's economy); nodes that contribute with
    zero benefit get the finite cap so aggregate indices remain defined.
    """
    # Sorted iteration keeps float-summation order (and hence results) stable
    # across processes, where set order would follow the per-process hash seed.
    ratios: Dict[str, float] = {}
    for node_id in sorted(set(contributions) | set(benefits)):
        contribution = contributions.get(node_id, 0.0)
        benefit = benefits.get(node_id, 0.0)
        if benefit > 0:
            ratios[node_id] = contribution / benefit
        elif contribution > 0:
            ratios[node_id] = zero_benefit_cap
        else:
            ratios[node_id] = 0.0
    return ratios


def smoothed_ratios(
    contributions: Mapping[str, float],
    benefits: Mapping[str, float],
    smoothing: float = 1.0,
) -> Dict[str, float]:
    """Per-node ``contribution / (benefit + smoothing)`` ratio.

    The additive smoothing keeps zero-benefit contributors comparable with
    everyone else instead of saturating at a cap, so dispersion indices over
    these ratios actually move when a protocol reduces the work handed to
    uninterested nodes.  This is the headline fairness signal used by the
    benchmark tables; the raw (capped) ratios of
    :func:`contribution_benefit_ratios` are reported alongside it.
    """
    if smoothing <= 0:
        raise ValueError("smoothing must be positive")
    ratios: Dict[str, float] = {}
    for node_id in sorted(set(contributions) | set(benefits)):
        contribution = contributions.get(node_id, 0.0)
        benefit = benefits.get(node_id, 0.0)
        ratios[node_id] = contribution / (benefit + smoothing)
    return ratios


def wasted_contribution_share(
    contributions: Mapping[str, float], benefits: Mapping[str, float]
) -> float:
    """Fraction of the total contribution performed by zero-benefit nodes.

    This captures the paper's core complaint about Scribe's interior nodes
    and about classic gossip with selective interest: participants that get
    nothing from the system still carry a large share of its work.  A fair
    system drives this towards the minimum needed for connectivity.
    """
    total = sum(max(value, 0.0) for value in contributions.values())
    if total <= 0:
        return 0.0
    wasted = sum(
        max(contribution, 0.0)
        for node_id, contribution in contributions.items()
        if benefits.get(node_id, 0.0) <= 0
    )
    return wasted / total


def jain_index(values: Iterable[float]) -> float:
    """Jain's fairness index: 1 when all values are equal, 1/n when one hogs all.

    Defined as ``(sum x)^2 / (n * sum x^2)``.  An empty or all-zero input is
    perfectly fair by convention (index 1).
    """
    data = [max(value, 0.0) for value in values]
    if not data:
        return 1.0
    total = sum(data)
    squares = sum(value * value for value in data)
    if squares < 1e-280:
        # Squares this small have underflowed; the index is scale-free, so
        # measure the values relative to their peak instead.
        peak = max(data)
        if peak == 0.0:
            return 1.0
        data = [value / peak for value in data]
        total = sum(data)
        squares = sum(value * value for value in data)
    return (total * total) / (len(data) * squares)


def gini_coefficient(values: Iterable[float]) -> float:
    """Gini coefficient: 0 for perfect equality, approaching 1 for concentration."""
    data = sorted(max(value, 0.0) for value in values)
    count = len(data)
    if count == 0:
        return 0.0
    total = sum(data)
    if total == 0.0:
        return 0.0
    cumulative = 0.0
    for rank, value in enumerate(data, start=1):
        cumulative += rank * value
    return (2.0 * cumulative) / (count * total) - (count + 1.0) / count


def coefficient_of_variation(values: Iterable[float]) -> float:
    """Standard deviation divided by the mean (0 when all values are equal)."""
    data = list(values)
    if not data:
        return 0.0
    mean = sum(data) / len(data)
    if mean == 0.0:
        return 0.0
    variance = sum((value - mean) ** 2 for value in data) / len(data)
    return math.sqrt(variance) / mean


def max_min_spread(values: Iterable[float]) -> float:
    """``max / min`` over strictly positive values (1 when equal, inf-free).

    Values of zero are ignored; if fewer than two positive values remain the
    spread is 1 (nothing to compare).
    """
    positive = [value for value in values if value > 0]
    if len(positive) < 2:
        return 1.0
    return max(positive) / min(positive)


def normalised_ratio_deviation(ratios: Mapping[str, float]) -> float:
    """Mean absolute deviation of ratios from their mean, normalised by the mean.

    This is the most direct reading of Figure 1 ("the ratio of each peer must
    be equivalent"): 0 means every peer has exactly the same
    contribution/benefit ratio.
    """
    data = [value for value in ratios.values()]
    if not data:
        return 0.0
    mean = sum(data) / len(data)
    if mean == 0.0:
        return 0.0
    return sum(abs(value - mean) for value in data) / (len(data) * mean)


@dataclass(frozen=True)
class FairnessReport:
    """Aggregate fairness and load-balance view of one run.

    ``ratio_*`` fields describe the distribution of contribution/benefit
    ratios (fairness, Figure 1); ``contribution_*`` fields describe the
    distribution of raw contributions (load balancing, §3.1).  The paper's
    central observation is that the second can look good while the first is
    terrible.
    """

    node_count: int
    ratios: Dict[str, float] = field(default_factory=dict)
    smoothed: Dict[str, float] = field(default_factory=dict)
    ratio_jain: float = 1.0
    ratio_gini: float = 0.0
    ratio_cv: float = 0.0
    ratio_spread: float = 1.0
    ratio_deviation: float = 0.0
    benefiting_ratio_jain: float = 1.0
    benefiting_ratio_spread: float = 1.0
    wasted_share: float = 0.0
    contribution_jain: float = 1.0
    contribution_gini: float = 0.0
    contribution_cv: float = 0.0
    mean_contribution: float = 0.0
    mean_benefit: float = 0.0
    freeriders: int = 0
    exploited: int = 0

def evaluate_fairness(
    contributions: Mapping[str, float],
    benefits: Mapping[str, float],
    exploited_factor: float = 4.0,
    freerider_factor: float = 0.25,
) -> FairnessReport:
    """Build a :class:`FairnessReport` from per-node contributions and benefits.

    ``exploited`` counts nodes whose ratio exceeds ``exploited_factor`` times
    the median ratio (they work much more than they benefit — the paper's
    unlucky Scribe forwarders); ``freeriders`` counts nodes below
    ``freerider_factor`` times the median (they benefit while barely
    contributing).  The headline dispersion indices (``ratio_*``) are
    computed over the *smoothed* ratios so zero-benefit contributors move
    them instead of saturating them; ``benefiting_ratio_*`` restrict the view
    to nodes with positive benefit, and ``wasted_share`` reports how much of
    the total work is carried by nodes that benefit nothing.
    """
    ratios = contribution_benefit_ratios(contributions, benefits)
    smoothed = smoothed_ratios(contributions, benefits)
    smoothed_values = list(smoothed.values())
    contribution_values = [contributions.get(node, 0.0) for node in ratios]
    benefit_values = [benefits.get(node, 0.0) for node in ratios]
    benefiting_values = [
        value for node, value in ratios.items() if benefits.get(node, 0.0) > 0
    ]

    positive_ratios = sorted(value for value in ratios.values() if value > 0)
    median_ratio = positive_ratios[len(positive_ratios) // 2] if positive_ratios else 0.0
    exploited = sum(
        1
        for value in ratios.values()
        if median_ratio > 0 and value > exploited_factor * median_ratio
    )
    freeriders = sum(
        1
        for node, value in ratios.items()
        if median_ratio > 0
        and value < freerider_factor * median_ratio
        and benefits.get(node, 0.0) > 0
    )

    node_count = len(ratios)
    return FairnessReport(
        node_count=node_count,
        ratios=ratios,
        smoothed=smoothed,
        ratio_jain=jain_index(smoothed_values),
        ratio_gini=gini_coefficient(smoothed_values),
        ratio_cv=coefficient_of_variation(smoothed_values),
        ratio_spread=max_min_spread(smoothed_values),
        ratio_deviation=normalised_ratio_deviation(smoothed),
        benefiting_ratio_jain=jain_index(benefiting_values),
        benefiting_ratio_spread=max_min_spread(benefiting_values),
        wasted_share=wasted_contribution_share(contributions, benefits),
        contribution_jain=jain_index(contribution_values),
        contribution_gini=gini_coefficient(contribution_values),
        contribution_cv=coefficient_of_variation(contribution_values),
        mean_contribution=(sum(contribution_values) / node_count) if node_count else 0.0,
        mean_benefit=(sum(benefit_values) / node_count) if node_count else 0.0,
        freeriders=freeriders,
        exploited=exploited,
    )
