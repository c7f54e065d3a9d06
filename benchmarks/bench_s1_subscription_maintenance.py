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

from common import BASE_CONFIG, attach_extra_info, compare_configs, print_results, run_configs
from repro.core import gini_coefficient


def run_subscription_churn():
    base = BASE_CONFIG.with_overrides(
        name="s1",
        nodes=80,
        topics=16,
        topic_exponent=1.2,
        duration=25.0,
        drain_time=10.0,
        publication_rate=1.0,
        subscription_churn_rate=6.0,
    )
    results = run_configs(
        compare_configs(base, ["scribe", "dks", "gossip", "fair-gossip"]), keep_system=True
    )
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
    print_results(
        "S1 — subscription churn: total maintenance work and its concentration (Gini)",
        results,
        extra_columns=maintenance,
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
