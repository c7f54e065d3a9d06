"""The fair gossip protocol — the paper's proposed research direction made concrete.

Section 5.2 sketches the mechanism: "if processes have a measure of their
benefit, a process would be able to choose its fanout accordingly and ensure
fair dissemination of events", and alternatively "adapt the number of events
contained in a gossip message".  :class:`FairGossipNode` extends the basic
push protocol of Figure 4 with both levers:

* each node measures its own benefit (interesting events delivered per
  round) and estimates the population's benefit from the rates piggybacked
  on received gossip messages (:class:`~repro.core.estimators.BenefitEstimator`),
  feeding the estimator once at the end of every round;
* two :class:`~repro.core.estimators.ContributionLever` instances scale the
  node's fanout and the number of events per gossip message with its
  relative benefit;
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

from typing import Optional, Sequence

from ..gossip.push import PushGossipNode
from ..gossip.system import GossipSystem
from ..membership.base import MembershipProvider
from .estimators import FANOUT, PAYLOAD, BenefitEstimator, ContributionLever
from .policy import EXPRESSIVE_POLICY, FairnessPolicy

__all__ = ["FairGossipNode", "FairGossipSystem"]


class FairGossipNode(PushGossipNode):
    """Push gossip node with benefit-driven fanout and payload adaptation.

    Parameters (in addition to :class:`PushGossipNode`)
    ----------
    min_fanout / max_fanout / min_payload / max_payload:
        Allowed ranges for the two contribution levers; ``fanout`` and
        ``gossip_size`` (Figure 4's static ``F`` and ``N``) are their
        neutral operating points.
    policy:
        Fairness policy; only its name is used, in reports.  No node is
        silenced: ``min_fanout`` / ``min_payload`` are the floors below
        which the levers never go.
    adapt_fanout / adapt_payload:
        Switches for ablation experiments (fanout-only, payload-only, both).
    smoothing:
        EWMA weight of both levers' recommendations (``bench_c1`` compares
        two); the benefit estimator runs at its default smoothing.
    """

    def __init__(
        self,
        *args,
        min_fanout: int = 1,
        max_fanout: int = 12,
        min_payload: int = 1,
        max_payload: int = 32,
        policy: FairnessPolicy = EXPRESSIVE_POLICY,
        adapt_fanout: bool = True,
        adapt_payload: bool = True,
        smoothing: float = 0.5,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.policy = policy
        self.adapt_fanout = adapt_fanout
        self.adapt_payload = adapt_payload
        self.estimator = BenefitEstimator()
        lever_tags = {"node": self.node_id}
        self.fanout_lever = ContributionLever(
            FANOUT, self.fanout, min_fanout, max_fanout,
            self.estimator, smoothing, self.telemetry, lever_tags,
        )
        self.payload_lever = ContributionLever(
            PAYLOAD, self.gossip_size, min_payload, max_payload,
            self.estimator, smoothing, self.telemetry, lever_tags,
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
        return self.fanout_lever.current

    def current_gossip_size(self) -> int:
        if not self.adapt_payload:
            return self.gossip_size
        return self.payload_lever.current

    # ---------------------------------------------------------------- rounds

    def after_round(self) -> None:
        delivered = self.delivery_log.delivery_count(self.node_id)
        # One update per round whatever the ablation: the levers are compared
        # under the same smoothing, and frozen levers still report rates.
        self.estimator.observe_own_round(delivered - self._deliveries_at_round_start)
        self._deliveries_at_round_start = delivered
        if self.adapt_fanout:
            self.fanout_lever.recompute()
        if self.adapt_payload:
            self.payload_lever.recompute(len(self.buffer))
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
