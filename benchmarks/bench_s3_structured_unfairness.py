"""Experiment S3 (§4.1): where structured approaches lose fairness.

Measures the two structural effects the paper names for Scribe and DKS:

* **interior-node wasted work** — gossip/multicast messages forwarded by
  Scribe tree nodes that never subscribed to the topic they forward;
* **index hotspot load** — the skew (Gini) of per-node dispatch work in the
  DKS-style grouping, where coordinators of popular topics do the sending.

Expected shape: a non-trivial fraction of Scribe's forwarding is done by
non-subscribers, and DKS dispatch work is strongly concentrated, both far
from the fair-gossip reference run on the same workload.
"""

from __future__ import annotations

from common import BASE_CONFIG, attach_extra_info, compare_configs, print_results, run_configs
from repro.core import gini_coefficient


def run_structured():
    base = BASE_CONFIG.with_overrides(
        name="s3",
        nodes=96,
        topics=64,
        topic_exponent=1.0,
        interest_model="zipf",
        max_topics_per_node=4,
        duration=20.0,
        drain_time=12.0,
    )
    results = run_configs(compare_configs(base, ["scribe", "dks", "fair-gossip"]), keep_system=True)
    extras = {}
    for result in results:
        ledger = result.system.ledger
        sends = {node: ledger.account(node).gossip_messages_sent for node in ledger.node_ids()}
        benefits = {node: ledger.account(node).events_delivered for node in ledger.node_ids()}
        wasted = sum(count for node, count in sends.items() if benefits.get(node, 0) == 0)
        total = sum(sends.values()) or 1
        extras[result.config.name] = {
            "nonbeneficiary_send_share": wasted / total,
            "send_gini": gini_coefficient(sends.values()),
        }
    return results, extras


def test_s3_structured_unfairness(benchmark):
    results, extras = benchmark.pedantic(run_structured, rounds=1, iterations=1)
    print_results(
        "S3 — structured baselines: wasted forwarding and dispatch concentration", results, extras
    )
    attach_extra_info(benchmark, results)
    benchmark.extra_info["structure"] = extras
    scribe = extras["s3/scribe"]
    dks = extras["s3/dks"]
    fair = extras["s3/fair-gossip"]
    # Scribe's dissemination work is heavily concentrated on a few tree/root
    # nodes, far more than fair gossip's.
    assert scribe["send_gini"] > fair["send_gini"] + 0.2
    # DKS coordinators create a strong dispatch hotspot.
    assert dks["send_gini"] > 0.5
