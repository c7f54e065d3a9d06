"""Decentralised benefit estimation.

A fair gossip node needs two quantities to choose its contribution level
(§5.2): its *own* recent benefit (interesting events delivered per round) and
an estimate of the *population average* benefit, so it can tell whether it
benefits more or less than its peers.  Neither requires extra messages: the
own rate is observed locally, and the population rate is estimated from the
``sender_benefit_rate`` values piggybacked on the gossip messages the node
receives anyway.

Both signals are smoothed with exponentially weighted moving averages so the
controllers neither oscillate on bursty traffic nor take forever to react to
an interest change (the convergence question of challenge 1).

:class:`ContributionLever` is what the two controllers driven by these
signals (fanout and payload size) have in common.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..telemetry import Telemetry

__all__ = ["Ewma", "BenefitEstimator", "ContributionLever"]


@dataclass
class Ewma:
    """Exponentially weighted moving average.

    ``alpha`` is the weight of each new observation; 1.0 tracks the latest
    value exactly, values near 0 average over a long horizon.
    """

    alpha: float = 0.3
    value: float = 0.0
    observations: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be within (0, 1]")

    def observe(self, sample: float) -> float:
        """Fold one sample into the average and return the new value."""
        if self.observations == 0:
            self.value = float(sample)
        else:
            self.value = self.alpha * float(sample) + (1.0 - self.alpha) * self.value
        self.observations += 1
        return self.value

    def reset(self) -> None:
        """Forget everything."""
        self.value = 0.0
        self.observations = 0


class BenefitEstimator:
    """Tracks a node's own benefit rate and an estimate of the population rate.

    Parameters
    ----------
    own_alpha:
        Smoothing for the node's own deliveries-per-round signal.
    peer_alpha:
        Smoothing for the population estimate built from piggybacked peer
        rates.  Peers are sampled through gossip, so this is an unbiased
        (if noisy) estimate of the mean benefit rate of the system.
    """

    def __init__(self, own_alpha: float = 0.3, peer_alpha: float = 0.1) -> None:
        self._own = Ewma(alpha=own_alpha)
        self._peers = Ewma(alpha=peer_alpha)

    # ----------------------------------------------------------- observing

    def observe_own_round(self, deliveries: float) -> None:
        """Record the node's own deliveries in the round that just ended."""
        self._own.observe(deliveries)

    def observe_peer_rate(self, rate: float) -> None:
        """Record a peer's advertised benefit rate (from a received message)."""
        self._peers.observe(max(rate, 0.0))

    # ------------------------------------------------------------- reading

    @property
    def own_rate(self) -> float:
        """Smoothed own benefit rate (deliveries per round)."""
        return self._own.value

    @property
    def population_rate(self) -> float:
        """Smoothed estimate of the average peer benefit rate."""
        return self._peers.value

    @property
    def own_observations(self) -> int:
        """How many rounds have been observed locally."""
        return self._own.observations

    @property
    def peer_observations(self) -> int:
        """How many peer advertisements have been folded in."""
        return self._peers.observations

    def relative_benefit(self) -> float:
        """Own rate divided by the population rate.

        Returns 1.0 while there is not enough information to compare, so the
        controllers start from the neutral operating point and only move away
        from it once real measurements exist.
        """
        if self._own.observations == 0 or self._peers.observations == 0:
            return 1.0
        population = self.population_rate
        if population <= 0.0:
            # Nobody seems to benefit; if this node does, it should carry
            # proportionally more of the work.
            return 1.0 if self.own_rate <= 0.0 else 2.0
        return self.own_rate / population


class ContributionLever:
    """The part of an adaptive controller that does not depend on its lever.

    A controller scales one contribution lever (fanout, payload size) by the
    node's relative benefit.  Subclasses keep what differs — their schedule
    and ``_recompute`` — and set :attr:`gauge_name`; this base holds the
    shared estimator, the smoothing filter, the recommendation history and
    the telemetry gauge mirroring the live recommendation.
    """

    #: Telemetry gauge the live recommendation is published under.
    gauge_name = ""

    def __init__(
        self,
        neutral: int,
        estimator: Optional[BenefitEstimator],
        smoothing: float,
        telemetry: Optional[Telemetry],
        telemetry_tags: Optional[dict],
    ) -> None:
        self.estimator = estimator if estimator is not None else BenefitEstimator()
        self._smoothed = Ewma(alpha=smoothing)
        self._current = neutral
        self.history: List[int] = []
        telemetry = telemetry if telemetry is not None else Telemetry()
        self._gauge = telemetry.gauge(self.gauge_name, **(telemetry_tags or {}))
        # Publish the neutral operating point immediately so snapshots
        # taken before the first adaptation (or in ablations that never
        # adapt this lever) show the effective value, not 0.
        self._gauge.set(self._current)

    def observe_peer_rate(self, rate: float) -> None:
        """Record a peer's advertised benefit rate."""
        self.estimator.observe_peer_rate(rate)

    def rounds_to_converge(self, target: Optional[int] = None, stable_rounds: int = 5) -> Optional[int]:
        """Number of rounds until the recommendation stabilised.

        Convergence means ``stable_rounds`` consecutive identical
        recommendations (optionally equal to ``target``).  Returns ``None``
        if the controller never stabilised within the recorded history —
        callers treat that as "did not converge".
        """
        if stable_rounds <= 0:
            raise ValueError("stable_rounds must be positive")
        history = self.history
        for index in range(len(history) - stable_rounds + 1):
            window = history[index : index + stable_rounds]
            if len(set(window)) == 1 and (target is None or window[0] == target):
                return index + 1
        return None
