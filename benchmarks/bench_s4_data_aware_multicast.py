"""Experiment S4 (§4.2): data-aware multicast — fair members, broker-like delegates.

Runs the topic-hierarchy gossip-group system on a hierarchical workload and
splits the population into ordinary members and supertopic delegates.
Expected shape: ordinary members have contribution/benefit ratios clustered
tightly (fair dissemination, the property the paper credits dam with), while
delegates carry a several-fold higher ratio — the "similar to a broker"
effect the paper warns about — and the effect grows with the number of
delegates per root.
"""

from __future__ import annotations

from common import attach_extra_info, print_columns, run_in_process
from repro.core import EXPRESSIVE_POLICY


def delegate_stats(result):
    """Delegate count and mean work-per-benefit of delegates vs members."""
    system = result.system
    delegate_ids = {node for nodes in system.delegates().values() for node in nodes}
    contributions = EXPRESSIVE_POLICY.contributions(system.ledger)
    benefits = EXPRESSIVE_POLICY.benefits(system.ledger)

    def mean_ratio(node_ids):
        ratios = [
            contributions[node] / max(benefits.get(node, 0.0), 1.0)
            for node in node_ids
            if node in contributions
        ]
        return sum(ratios) / len(ratios) if ratios else 0.0

    members = [node for node in system.node_ids() if node not in delegate_ids]
    return {
        "delegate_count": float(len(delegate_ids)),
        "delegate_mean_ratio": mean_ratio(delegate_ids),
        "member_mean_ratio": mean_ratio(members),
    }


def test_s4_data_aware_multicast_delegate_effect(benchmark):
    # The delegates are read off the live system, so the points run in-process.
    results = benchmark.pedantic(run_in_process, ("s4-delegates",), rounds=1, iterations=1)
    extras = {result.config.name: delegate_stats(result) for result in results}
    print_columns("S4 — data-aware multicast: members vs supertopic delegates", extras)
    attach_extra_info(benchmark, results)
    benchmark.extra_info["delegates"] = extras
    for result in results:
        stats = extras[result.config.name]
        # Dissemination stays interest-local and reliable ...
        assert result.reliability.delivery_ratio > 0.85
        # ... and delegates carry a clearly higher work-per-benefit ratio
        # than ordinary members (the broker-like duty the paper describes).
        assert stats["delegate_mean_ratio"] > 1.5 * stats["member_mean_ratio"]
