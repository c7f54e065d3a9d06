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

:class:`ContributionLever` turns those signals into a contribution level.
The paper offers two levers — the fanout ("changing the fanout precisely
means changing the contribution of the process") and the gossip message size
("by selecting more or less messages to forward, the contribution of the
sender can also be modulated", Figure 3) — and both are the same controller:
:data:`FANOUT` and :data:`PAYLOAD` name what differs between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..telemetry import Telemetry

__all__ = ["Ewma", "BenefitEstimator", "LeverKind", "FANOUT", "PAYLOAD", "ContributionLever"]


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


@dataclass(frozen=True)
class LeverKind:
    """What tells one contribution lever from the other."""

    #: Telemetry gauge the live recommendation is published under.
    gauge_name: str
    #: Lowest floor a lever of this kind may be given: a node may be told to
    #: contact nobody, but a gossip message carries at least one event.
    lowest_floor: int
    #: Fraction of the current buffer backlog that must fit into one round's
    #: recommendation regardless of fairness.  Shrinking the payload of a
    #: node that holds many fresh events would delay dissemination for
    #: everyone, so low-benefit nodes still drain what they are momentarily
    #: responsible for; the fanout has no such input.
    backlog_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.backlog_fraction <= 1.0:
            raise ValueError("backlog_fraction must be within [0, 1]")


FANOUT = LeverKind("controller.fanout", lowest_floor=0)
PAYLOAD = LeverKind("controller.payload", lowest_floor=1, backlog_fraction=0.25)


class ContributionLever:
    """One contribution lever of §5.2, scaled by the node's relative benefit.

    Every round the lever recommends

    ``clamp(round(max(smoothed(base * relative_benefit), backlog floor)), floor, ceiling)``

    where the relative benefit is the node's own benefit rate divided by the
    estimated population rate.  ``floor`` answers the paper's "is there any
    requirement on the size of the fanout / the gossip message size?":
    epidemic dissemination needs an average fanout of about ``ln(n)`` and a
    system-wide throughput (average payload x average fanout per round) no
    lower than the publication rate, so the lever redistributes work from
    low-benefit to high-benefit nodes around ``base`` rather than removing
    it, and the floor keeps even zero-benefit nodes connected and draining.

    Parameters
    ----------
    kind:
        :data:`FANOUT` or :data:`PAYLOAD`.
    base / floor / ceiling:
        The neutral operating point (Figure 4's static ``F`` or ``N``) and
        the allowed range around it.
    estimator:
        Benefit estimator, shared by a node's levers so both respond to the
        same signal; whoever owns it feeds it, once per round, and then
        calls :meth:`recompute` on each active lever.
    smoothing:
        EWMA weight applied to the raw recommendation before clamping;
        1.0 reacts instantly, smaller values react more slowly but resist
        noise.

    The recommendation history is kept so the convergence benchmarks (C1,
    C2) can measure how many rounds the lever takes to settle after an
    interest change.
    """

    def __init__(
        self,
        kind: LeverKind,
        base: int,
        floor: int,
        ceiling: int,
        estimator: Optional[BenefitEstimator] = None,
        smoothing: float = 0.5,
        telemetry: Optional[Telemetry] = None,
        telemetry_tags: Optional[dict] = None,
    ) -> None:
        if floor < kind.lowest_floor:
            raise ValueError(f"the floor of {kind.gauge_name} must be at least {kind.lowest_floor}")
        if not floor <= base <= ceiling:
            raise ValueError("require floor <= base <= ceiling")
        self.kind = kind
        self.base = base
        self.floor = floor
        self.ceiling = ceiling
        self.estimator = estimator if estimator is not None else BenefitEstimator()
        self._smoothed = Ewma(alpha=smoothing)
        #: The value to use in the next round.
        self.current = base
        self.history: List[int] = []
        telemetry = telemetry if telemetry is not None else Telemetry()
        self._gauge = telemetry.gauge(kind.gauge_name, **(telemetry_tags or {}))
        # Publish the neutral operating point immediately so snapshots
        # taken before the first adaptation (or in ablations that never
        # adapt this lever) show the effective value, not 0.
        self._gauge.set(self.current)

    def recompute(self, backlog: int = 0) -> None:
        """Re-plan from the estimator's current rates (and the buffer backlog)."""
        smoothed = self._smoothed.observe(self.base * self.estimator.relative_benefit())
        backlog_floor = min(self.ceiling, int(round(backlog * self.kind.backlog_fraction)))
        wanted = round(max(smoothed, backlog_floor))
        self.current = int(min(self.ceiling, max(self.floor, wanted)))
        self.history.append(self.current)
        self._gauge.set(self.current)
