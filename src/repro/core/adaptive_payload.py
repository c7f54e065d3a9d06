"""Adaptive gossip message size control (challenge 2 and 4 of §5.2).

The second contribution lever offered by the paper is the *gossip message
size*: "by selecting more or less messages to forward, the contribution of
the sender can also be modulated" (Figure 3).  The controller mirrors the
fanout controller — the number of events packed into each gossip message is
scaled by the node's relative benefit — but with one extra input: the
observed buffer backlog.  Shrinking the payload of a node that currently
holds many undelivered fresh events would delay dissemination for everyone,
so the recommendation is floored by the backlog-driven minimum.

The answer to "is there any requirement on the gossip message size?" is the
same kind of constraint as for the fanout: the *system-wide* event
throughput (average payload × average fanout per round) must not drop below
the publication rate, otherwise buffers grow without bound.  The controller
therefore never recommends less than ``min_payload`` and exposes its history
so benchmark C2 can measure convergence and benchmark C3 the reliability
cliff when the floor is set too low.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..telemetry import Telemetry
from .estimators import BenefitEstimator, ContributionLever

__all__ = ["AdaptivePayloadController", "PayloadSchedule"]


@dataclass(frozen=True)
class PayloadSchedule:
    """Allowed range for the number of events per gossip message."""

    base_payload: int = 8
    min_payload: int = 1
    max_payload: int = 32

    def __post_init__(self) -> None:
        if self.min_payload <= 0:
            raise ValueError("min_payload must be positive")
        if not self.min_payload <= self.base_payload <= self.max_payload:
            raise ValueError("require min_payload <= base_payload <= max_payload")

    def clamp(self, value: float) -> int:
        """Round and clamp a raw recommendation into the allowed range."""
        return int(min(self.max_payload, max(self.min_payload, round(value))))


class AdaptivePayloadController(ContributionLever):
    """Per-node gossip payload-size controller.

    Parameters
    ----------
    schedule:
        Allowed payload range and neutral operating point.
    estimator:
        Benefit estimator shared with the fanout controller (so both levers
        respond to the same benefit signal).
    smoothing:
        EWMA weight on the raw recommendation.
    backlog_fraction:
        Fraction of the current fresh-event backlog that must fit into one
        round's payload regardless of fairness, so low-benefit nodes still
        drain events they are momentarily responsible for.
    """

    gauge_name = "controller.payload"

    def __init__(
        self,
        schedule: Optional[PayloadSchedule] = None,
        estimator: Optional[BenefitEstimator] = None,
        smoothing: float = 0.5,
        backlog_fraction: float = 0.25,
        telemetry: Optional[Telemetry] = None,
        telemetry_tags: Optional[dict] = None,
    ) -> None:
        if not 0.0 <= backlog_fraction <= 1.0:
            raise ValueError("backlog_fraction must be within [0, 1]")
        self.schedule = schedule if schedule is not None else PayloadSchedule()
        super().__init__(
            self.schedule.base_payload, estimator, smoothing, telemetry, telemetry_tags
        )
        self.backlog_fraction = backlog_fraction

    # ----------------------------------------------------------- observing

    def observe_round(self, own_deliveries: float, backlog: int = 0) -> None:
        """Record the finished round (deliveries and current buffer backlog)."""
        self.estimator.observe_own_round(own_deliveries)
        self._recompute(backlog)

    def _recompute(self, backlog: int) -> None:
        raw = self.schedule.base_payload * self.estimator.relative_benefit()
        smoothed = self._smoothed.observe(raw)
        backlog_floor = min(
            self.schedule.max_payload, int(round(backlog * self.backlog_fraction))
        )
        self._current = self.schedule.clamp(max(smoothed, backlog_floor))
        self.history.append(self._current)
        self._gauge.set(self._current)

    # ------------------------------------------------------------- reading

    @property
    def current_payload(self) -> int:
        """Events per gossip message to use in the next round."""
        return self._current
