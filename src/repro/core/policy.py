"""Fairness policies.

Section 5 lists the fairness *aspects* (receive many interesting events →
contribute more; place many subscriptions → contribute more) and notes that
they can conflict, so "there must be adaptive approaches which allow to
compensate between different fairness goals".  A :class:`FairnessPolicy`
encodes one concrete compromise:

* which weights turn the raw ledger counters into contribution and benefit
  (Figure 2 vs Figure 3);
* how the delivery-based and subscription-based benefit terms are blended
  depending on how busy the system is (the §5.1 idea that when few events
  flow, subscription cost should dominate, and when many events flow, the
  heavy receivers should do the maintenance).

The fairness ratio compares each node's contribution with its benefit as
these weights define them (:mod:`repro.core.fairness`); a node's share of
the work is steered by the fair gossip levers, whose floors keep every node
contributing (:mod:`repro.core.fair_gossip`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from .accounting import BenefitWeights, ContributionWeights, NodeAccount, WorkLedger

__all__ = ["FairnessPolicy", "TOPIC_BASED_POLICY", "EXPRESSIVE_POLICY"]


@dataclass(frozen=True)
class FairnessPolicy:
    """A concrete interpretation of the paper's fairness figures.

    Attributes
    ----------
    name:
        Identifier used in reports.
    contribution_weights / benefit_weights:
        How ledger counters fold into scalars (see
        :mod:`repro.core.accounting`).
    adaptive_blend:
        When ``True`` the per-filter benefit weight is scaled by how quiet
        the system is: in a quiet system (few deliveries per node) the filter
        term keeps its full weight, in a busy system it fades out and
        deliveries dominate — the compensation rule sketched in §5.1.
    """

    name: str = "expressive"
    contribution_weights: ContributionWeights = field(default_factory=ContributionWeights)
    benefit_weights: BenefitWeights = field(default_factory=BenefitWeights)
    adaptive_blend: bool = False

    # ------------------------------------------------------------- scalars

    def contribution(self, account: NodeAccount) -> float:
        """Scalar contribution of one node's account."""
        return self.contribution_weights.contribution(account)

    def benefit(self, account: NodeAccount, busyness: Optional[float] = None) -> float:
        """Scalar benefit of one node's account.

        ``busyness`` is the system-wide mean deliveries per node in the
        current window; it only matters when ``adaptive_blend`` is on.
        """
        weights = self.benefit_weights
        if self.adaptive_blend and weights.per_filter > 0:
            weights = replace(weights, per_filter=weights.per_filter * self._filter_scale(busyness))
        return weights.benefit(account)

    @staticmethod
    def _filter_scale(busyness: Optional[float]) -> float:
        """Scale factor for the filter term: 1 when quiet, →0 when busy."""
        if busyness is None or busyness <= 0:
            return 1.0
        return 1.0 / (1.0 + busyness)

    # ----------------------------------------------------------- aggregates

    def contributions(self, ledger: WorkLedger) -> Dict[str, float]:
        """Per-node contributions for a whole ledger."""
        return {node_id: self.contribution(ledger.account(node_id)) for node_id in ledger.node_ids()}

    def benefits(self, ledger: WorkLedger) -> Dict[str, float]:
        """Per-node benefits for a whole ledger (with adaptive blending)."""
        node_ids = ledger.node_ids()
        busyness = None
        if self.adaptive_blend and node_ids:
            busyness = sum(
                ledger.account(node_id).events_delivered for node_id in node_ids
            ) / len(node_ids)
        return {
            node_id: self.benefit(ledger.account(node_id), busyness=busyness)
            for node_id in node_ids
        }


#: Figure 2: topic-based selection — benefit counts deliveries *and* filters,
#: contribution counts published and forwarded messages (including
#: subscription maintenance), with the adaptive blend between the two benefit
#: terms switched on.
TOPIC_BASED_POLICY = FairnessPolicy(
    name="topic-based",
    contribution_weights=ContributionWeights(
        per_publish=1.0,
        per_gossip_message=1.0,
        per_event_forwarded=0.0,
        per_infrastructure_message=1.0,
        per_subscription_forward=1.0,
    ),
    benefit_weights=BenefitWeights(per_delivery=1.0, per_filter=1.0),
    adaptive_blend=True,
)

#: Figure 3: expressive selection — benefit is deliveries only, contribution
#: is modulated by the fanout (number of gossip messages) and the gossip
#: message size (events carried).
EXPRESSIVE_POLICY = FairnessPolicy(
    name="expressive",
    contribution_weights=ContributionWeights(
        per_publish=1.0,
        per_gossip_message=1.0,
        per_event_forwarded=0.5,
        per_infrastructure_message=1.0,
        per_subscription_forward=0.0,
    ),
    benefit_weights=BenefitWeights(per_delivery=1.0, per_filter=0.0),
    adaptive_blend=False,
)
