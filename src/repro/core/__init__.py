"""The paper's contribution: fairness model, accounting, and the fair gossip protocol.

* accounting — the work/benefit ledger behind Figures 1–3;
* fairness — the metrics that quantify "the ratio contribution/benefit of
  each peer must be equivalent" (Figure 1);
* policy — topic-based (Figure 2) vs expressive (Figure 3) interpretations;
* estimators — the decentralised mechanism that lets a node choose its
  contribution level (fanout, payload size) from its benefit;
* fair_gossip — the adaptive protocol built on the Figure 4 baseline;
* bias — selfishness models and the receiver-side auditing defence.
"""

from .accounting import (
    AccountSnapshot,
    BenefitWeights,
    ContributionWeights,
    NodeAccount,
    WorkLedger,
)
from .bias import BiasDetector, BiasFinding, BiasReport, ForwardAudit, SelfishGossipNode
from .estimators import FANOUT, PAYLOAD, BenefitEstimator, ContributionLever, Ewma, LeverKind
from .fair_gossip import FairGossipNode, FairGossipSystem
from .fairness import (
    FairnessReport,
    contribution_benefit_ratios,
    coefficient_of_variation,
    evaluate_fairness,
    gini_coefficient,
    jain_index,
    max_min_spread,
    normalised_ratio_deviation,
    smoothed_ratios,
    wasted_contribution_share,
)
from .policy import EXPRESSIVE_POLICY, TOPIC_BASED_POLICY, FairnessPolicy

__all__ = [
    "WorkLedger",
    "NodeAccount",
    "AccountSnapshot",
    "ContributionWeights",
    "BenefitWeights",
    "FairnessReport",
    "contribution_benefit_ratios",
    "jain_index",
    "gini_coefficient",
    "coefficient_of_variation",
    "max_min_spread",
    "normalised_ratio_deviation",
    "smoothed_ratios",
    "wasted_contribution_share",
    "evaluate_fairness",
    "FairnessPolicy",
    "TOPIC_BASED_POLICY",
    "EXPRESSIVE_POLICY",
    "BenefitEstimator",
    "Ewma",
    "ContributionLever",
    "LeverKind",
    "FANOUT",
    "PAYLOAD",
    "FairGossipNode",
    "FairGossipSystem",
    "ForwardAudit",
    "BiasDetector",
    "BiasReport",
    "BiasFinding",
    "SelfishGossipNode",
]
