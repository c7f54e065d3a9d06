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

from .._exports import lazy_exports

_EXPORTS = {
    "WorkLedger": ".accounting",
    "NodeAccount": ".accounting",
    "ContributionWeights": ".accounting",
    "BenefitWeights": ".accounting",
    "FairnessReport": ".fairness",
    "contribution_benefit_ratios": ".fairness",
    "jain_index": ".fairness",
    "gini_coefficient": ".fairness",
    "coefficient_of_variation": ".fairness",
    "max_min_spread": ".fairness",
    "normalised_ratio_deviation": ".fairness",
    "smoothed_ratios": ".fairness",
    "wasted_contribution_share": ".fairness",
    "evaluate_fairness": ".fairness",
    "FairnessPolicy": ".policy",
    "TOPIC_BASED_POLICY": ".policy",
    "EXPRESSIVE_POLICY": ".policy",
    "BenefitEstimator": ".estimators",
    "Ewma": ".estimators",
    "ContributionLever": ".estimators",
    "LeverKind": ".estimators",
    "FANOUT": ".estimators",
    "PAYLOAD": ".estimators",
    "FairGossipNode": ".fair_gossip",
    "FairGossipSystem": ".fair_gossip",
    "ForwardAudit": ".bias",
    "BiasDetector": ".bias",
    "BiasReport": ".bias",
    "BiasFinding": ".bias",
    "SelfishGossipNode": ".bias",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
