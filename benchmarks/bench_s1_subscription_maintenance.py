"""Experiment S1 (§5.1): who pays for subscription maintenance?

Continuous subscribe/unsubscribe churn with per-topic churn rates differing
by an order of magnitude (Zipf weights).  Compares the structured systems —
where (un)subscriptions are routed through index/rendezvous nodes — with the
gossip systems, measuring how concentrated the maintenance work
(subscription forwards) is and whether it lands on nodes that benefit.
Expected shape: in Scribe/DKS a small set of index nodes absorbs most of the
maintenance traffic of popular, churn-heavy topics; gossip systems spread it.
"""

from __future__ import annotations

from common import attach_extra_info, print_columns, run_in_process
from repro.core import gini_coefficient


def run_subscription_churn():
    # Subscription forwards are in the ledger, not in the results artifact.
    results = run_in_process("s1-maintenance")
    maintenance = {}
    for result in results:
        ledger = result.system.ledger
        forwards = {
            node_id: ledger.account(node_id).subscription_forwards for node_id in ledger.node_ids()
        }
        maintenance[result.config.name] = {
            "maintenance_msgs": float(sum(forwards.values())),
            "maintenance_gini": gini_coefficient(forwards.values()),
        }
    return results, maintenance


def test_s1_subscription_maintenance_fairness(benchmark):
    results, maintenance = benchmark.pedantic(run_subscription_churn, rounds=1, iterations=1)
    print_columns(
        "S1 — subscription churn: total maintenance work and its concentration (Gini)", maintenance
    )
    attach_extra_info(benchmark, results)
    benchmark.extra_info["maintenance"] = maintenance
    scribe_gini = maintenance["s1/scribe"]["maintenance_gini"]
    dks_gini = maintenance["s1/dks"]["maintenance_gini"]
    # Structured systems route every (un)subscribe through the overlay, so
    # maintenance exists and concentrates on the index/rendezvous paths,
    # while the gossip systems have no routed subscription maintenance at all.
    assert maintenance["s1/scribe"]["maintenance_msgs"] > 0
    assert maintenance["s1/dks"]["maintenance_msgs"] > 0
    assert scribe_gini > 0.2
    assert dks_gini > 0.3
    assert maintenance["s1/gossip"]["maintenance_msgs"] == 0
    assert scribe_gini > maintenance["s1/gossip"]["maintenance_gini"]
