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

from common import attach_extra_info, print_columns, run_target
from repro.core import gini_coefficient


def structure(result):
    """Send share of nodes that delivered nothing, and the Gini of sends."""
    rows = result.fairness.per_node
    wasted = sum(row.forwarded_messages for row in rows if row.delivered == 0)
    total = sum(row.forwarded_messages for row in rows) or 1
    return {
        "nonbeneficiary_send_share": wasted / total,
        "send_gini": gini_coefficient([row.forwarded_messages for row in rows]),
    }


def test_s3_structured_unfairness(benchmark, tmp_path):
    results = benchmark.pedantic(run_target, ("s3-structure", tmp_path), rounds=1, iterations=1)
    extras = {result.config.name: structure(result) for result in results}
    print_columns("S3 — wasted forwarding and dispatch concentration", extras)
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
