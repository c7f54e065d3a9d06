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

from dataclasses import dataclass
from typing import Optional

from ..telemetry import Telemetry
from .estimators import BenefitEstimator, ContributionLever

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


class AdaptiveFanoutController(ContributionLever):
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

    gauge_name = "controller.fanout"

    def __init__(
        self,
        schedule: Optional[FanoutSchedule] = None,
        estimator: Optional[BenefitEstimator] = None,
        smoothing: float = 0.5,
        telemetry: Optional[Telemetry] = None,
        telemetry_tags: Optional[dict] = None,
    ) -> None:
        self.schedule = schedule if schedule is not None else FanoutSchedule()
        super().__init__(
            self.schedule.base_fanout, estimator, smoothing, telemetry, telemetry_tags
        )

    # ----------------------------------------------------------- observing

    def observe_round(self, own_deliveries: float) -> None:
        """Record the deliveries of the round that just ended and re-plan."""
        self.estimator.observe_own_round(own_deliveries)
        self._recompute()

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
