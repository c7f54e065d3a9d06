"""The fair gossip protocol — the paper's proposed research direction made concrete.

Section 5.2 sketches the mechanism: "if processes have a measure of their
benefit, a process would be able to choose its fanout accordingly and ensure
fair dissemination of events", and alternatively "adapt the number of events
contained in a gossip message".  :class:`FairGossipNode` extends the basic
push protocol of Figure 4 with both levers:

* each node measures its own benefit (interesting events delivered per
  round) and estimates the population's benefit from the rates piggybacked
  on received gossip messages (:class:`~repro.core.estimators.BenefitEstimator`);
* an :class:`~repro.core.adaptive_fanout.AdaptiveFanoutController` scales the
  node's fanout with its relative benefit;
* an :class:`~repro.core.adaptive_payload.AdaptivePayloadController` does the
  same for the number of events per gossip message;
* a :class:`~repro.core.policy.FairnessPolicy` decides which of the two
  levers are active and how benefit is defined (topic-based vs expressive).

The result: nodes that deliver many interesting events send more gossip
messages with larger payloads; nodes that benefit little fall back to the
configured floors, which keep the overlay connected (the reliability
requirement of challenges 3–4).

:class:`FairGossipSystem` is the drop-in replacement for
:class:`~repro.gossip.system.GossipSystem` used by examples and benchmarks.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..gossip.push import PushGossipNode
from ..gossip.system import GossipSystem
from ..membership.base import MembershipProvider
from .adaptive_fanout import AdaptiveFanoutController, FanoutSchedule
from .adaptive_payload import AdaptivePayloadController, PayloadSchedule
from .estimators import BenefitEstimator
from .policy import EXPRESSIVE_POLICY, FairnessPolicy

__all__ = ["FairGossipNode", "FairGossipSystem", "fair_node_kwargs"]


def fair_node_kwargs(
    *,
    fanout: int,
    gossip_size: int,
    round_period: float,
    min_fanout: int,
    max_fanout: int,
    min_payload: int,
    max_payload: int,
    policy: FairnessPolicy,
    adapt_fanout: bool = True,
    adapt_payload: bool = True,
) -> Dict:
    """Node kwargs for a :class:`FairGossipSystem` from scalar parameters.

    This is the protocol's own translation of a declarative spec (flat
    config fields or a ``SystemSpec``) into the schedule objects
    :class:`FairGossipNode` expects; the component registry's
    ``fair-gossip`` factory builds through it.
    """
    return {
        "fanout": fanout,
        "gossip_size": gossip_size,
        "round_period": round_period,
        "fanout_schedule": FanoutSchedule(
            base_fanout=fanout, min_fanout=min_fanout, max_fanout=max_fanout
        ),
        "payload_schedule": PayloadSchedule(
            base_payload=gossip_size, min_payload=min_payload, max_payload=max_payload
        ),
        "policy": policy,
        "adapt_fanout": adapt_fanout,
        "adapt_payload": adapt_payload,
    }


class FairGossipNode(PushGossipNode):
    """Push gossip node with benefit-driven fanout and payload adaptation.

    Parameters (in addition to :class:`PushGossipNode`)
    ----------
    fanout_schedule / payload_schedule:
        Allowed ranges for the two contribution levers; the ``base_*`` values
        play the role of Figure 4's static ``F`` and ``N``.
    policy:
        Fairness policy; its name is only used in reports but its
        ``minimum_share`` intent is honoured through the schedule floors.
    adapt_fanout / adapt_payload:
        Switches for ablation experiments (fanout-only, payload-only, both).
    own_alpha / peer_alpha / smoothing:
        Estimator and controller smoothing parameters.
    """

    def __init__(
        self,
        *args,
        fanout_schedule: Optional[FanoutSchedule] = None,
        payload_schedule: Optional[PayloadSchedule] = None,
        policy: FairnessPolicy = EXPRESSIVE_POLICY,
        adapt_fanout: bool = True,
        adapt_payload: bool = True,
        own_alpha: float = 0.3,
        peer_alpha: float = 0.1,
        smoothing: float = 0.5,
        **kwargs,
    ) -> None:
        fanout_schedule = fanout_schedule or FanoutSchedule(
            base_fanout=kwargs.get("fanout", 3) or 3
        )
        payload_schedule = payload_schedule or PayloadSchedule(
            base_payload=kwargs.get("gossip_size", 8) or 8
        )
        kwargs.setdefault("fanout", fanout_schedule.base_fanout)
        kwargs.setdefault("gossip_size", payload_schedule.base_payload)
        super().__init__(*args, **kwargs)
        self.policy = policy
        self.adapt_fanout = adapt_fanout
        self.adapt_payload = adapt_payload
        self.estimator = BenefitEstimator(own_alpha=own_alpha, peer_alpha=peer_alpha)
        controller_tags = {"node": self.node_id}
        self.fanout_controller = AdaptiveFanoutController(
            schedule=fanout_schedule,
            estimator=self.estimator,
            smoothing=smoothing,
            telemetry=self.telemetry,
            telemetry_tags=controller_tags,
        )
        self.payload_controller = AdaptivePayloadController(
            schedule=payload_schedule,
            estimator=self.estimator,
            smoothing=smoothing,
            telemetry=self.telemetry,
            telemetry_tags=controller_tags,
        )
        #: Pre-bound benefit gauges (telemetry's hot-path convention): the
        #: estimator exports every round, so avoid a facade lookup per call.
        self._benefit_gauges = (
            self.telemetry.gauge("benefit.own_rate", node=self.node_id),
            self.telemetry.gauge("benefit.population_rate", node=self.node_id),
            self.telemetry.gauge("benefit.relative", node=self.node_id),
        )
        self._deliveries_at_round_start = 0

    # -------------------------------------------------------- benefit signal

    def observe_peer_benefit(self, peer_id: str, benefit_rate: float) -> None:
        self.estimator.observe_peer_rate(benefit_rate)

    def benefit_rate(self) -> float:
        return self.estimator.own_rate

    # ------------------------------------------------------------ the levers

    def current_fanout(self) -> int:
        if not self.adapt_fanout:
            return self.fanout
        return self.fanout_controller.current_fanout

    def current_gossip_size(self) -> int:
        if not self.adapt_payload:
            return self.gossip_size
        return self.payload_controller.current_payload

    # ---------------------------------------------------------------- rounds

    def after_round(self) -> None:
        deliveries_this_round = len(self.delivered_event_ids) - self._deliveries_at_round_start
        self._deliveries_at_round_start = len(self.delivered_event_ids)
        backlog = len(self.buffer)
        if self.adapt_fanout:
            self.fanout_controller.observe_round(deliveries_this_round)
        if self.adapt_payload:
            self.payload_controller.observe_round(deliveries_this_round, backlog=backlog)
        if not self.adapt_fanout and not self.adapt_payload:
            # Keep the estimator warm even when both levers are frozen, so
            # ablation runs still report benefit rates.
            self.estimator.observe_own_round(deliveries_this_round)
        own_gauge, population_gauge, relative_gauge = self._benefit_gauges
        own_gauge.set(self.estimator.own_rate)
        population_gauge.set(self.estimator.population_rate)
        relative_gauge.set(self.estimator.relative_benefit())


class FairGossipSystem(GossipSystem):
    """Gossip system whose nodes run the fair (adaptive) protocol.

    Takes :class:`~repro.gossip.system.GossipSystem`'s arguments except
    ``node_class``, which is :class:`FairGossipNode`.
    """

    name = "fair-gossip"

    def __init__(
        self,
        simulator,
        network,
        node_ids: Sequence[str],
        membership_provider: Optional[MembershipProvider] = None,
        **kwargs,
    ) -> None:
        super().__init__(
            simulator, network, node_ids, membership_provider, FairGossipNode, **kwargs
        )
