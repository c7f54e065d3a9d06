"""Adaptive fanout control (challenge 1 and 3 of §5.2).

The fanout is the paper's first contribution lever: "changing the fanout
precisely means changing the contribution of the process".  The controller
implemented here chooses, every round, a fanout proportional to the node's
*relative benefit* (its own benefit rate divided by the estimated population
rate), clamped to a configurable range:

``fanout = clamp(round(base_fanout * relative_benefit), min_fanout, max_fanout)``

The minimum fanout answers the paper's question "is there any requirement on
the size of the fanout?": classic epidemic analysis needs an average fanout
of about ``ln(n)`` for reliable dissemination, so the *system-wide average*
must stay near the base fanout — the controller redistributes work from
low-benefit to high-benefit nodes rather than removing work globally.  The
floor keeps even zero-benefit nodes minimally connected so they can still
relay enough traffic for the overlay to stay usable (and so they keep
receiving events that might start matching a future subscription).

A smoothing factor damps the reaction to a single noisy round, and the
controller records its recommendation history so convergence-speed
experiments (benchmark C1) can measure how many rounds it takes to settle
after an interest change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..telemetry import Telemetry
from .estimators import BenefitEstimator, Ewma

__all__ = ["AdaptiveFanoutController", "FanoutSchedule"]


@dataclass(frozen=True)
class FanoutSchedule:
    """Static description of the allowed fanout range."""

    base_fanout: int = 4
    min_fanout: int = 1
    max_fanout: int = 12

    def __post_init__(self) -> None:
        if self.min_fanout < 0:
            raise ValueError("min_fanout must be non-negative")
        if not self.min_fanout <= self.base_fanout <= self.max_fanout:
            raise ValueError("require min_fanout <= base_fanout <= max_fanout")

    def clamp(self, value: float) -> int:
        """Round and clamp a raw recommendation into the allowed range."""
        return int(min(self.max_fanout, max(self.min_fanout, round(value))))


class AdaptiveFanoutController:
    """Per-node fanout controller driven by a :class:`BenefitEstimator`.

    Parameters
    ----------
    schedule:
        Allowed fanout range and the neutral operating point.
    estimator:
        Shared benefit estimator (usually owned by the fair gossip node).
    smoothing:
        EWMA weight applied to the raw recommendation before clamping;
        1.0 reacts instantly, smaller values react more slowly but resist
        noise.
    """

    def __init__(
        self,
        schedule: Optional[FanoutSchedule] = None,
        estimator: Optional[BenefitEstimator] = None,
        smoothing: float = 0.5,
        telemetry: Optional[Telemetry] = None,
        telemetry_tags: Optional[dict] = None,
    ) -> None:
        self.schedule = schedule if schedule is not None else FanoutSchedule()
        self.estimator = estimator if estimator is not None else BenefitEstimator()
        self._smoothed = Ewma(alpha=smoothing)
        self._current = self.schedule.base_fanout
        self.history: List[int] = []
        #: Telemetry gauge mirroring the live recommendation, so snapshots
        #: expose each node's current fanout mid-run.
        telemetry = telemetry if telemetry is not None else Telemetry()
        self._gauge = telemetry.gauge("controller.fanout", **(telemetry_tags or {}))
        # Publish the neutral operating point immediately so snapshots
        # taken before the first adaptation (or in ablations that never
        # adapt this lever) show the effective value, not 0.
        self._gauge.set(self._current)

    # ----------------------------------------------------------- observing

    def observe_round(self, own_deliveries: float) -> None:
        """Record the deliveries of the round that just ended and re-plan."""
        self.estimator.observe_own_round(own_deliveries)
        self._recompute()

    def observe_peer_rate(self, rate: float) -> None:
        """Record a peer's advertised benefit rate."""
        self.estimator.observe_peer_rate(rate)

    def _recompute(self) -> None:
        raw = self.schedule.base_fanout * self.estimator.relative_benefit()
        smoothed = self._smoothed.observe(raw)
        self._current = self.schedule.clamp(smoothed)
        self.history.append(self._current)
        self._gauge.set(self._current)

    # ------------------------------------------------------------- reading

    @property
    def current_fanout(self) -> int:
        """The fanout to use in the next round."""
        return self._current

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
