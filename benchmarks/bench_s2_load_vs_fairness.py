"""Experiment S2 (§3.1 vs §3.2): load balancing is not fairness.

A deliberately skewed interest distribution — 20% of the nodes subscribe to
the topics carrying ~80% of the traffic — run on SplitStream (built for load
balancing), classic gossip (naturally load-balanced), and fair gossip.
Expected shape: classic gossip and SplitStream score high on the
load-balance axis (contribution Jain) while scoring clearly lower on the
fairness axis (ratio Jain); fair gossip trades some load balance for a much
better contribution/benefit alignment.  This is Figure 1's message turned
into a measurement.
"""

from __future__ import annotations

from common import attach_extra_info, run_target


def test_s2_load_balancing_is_not_fairness(benchmark, tmp_path):
    results = benchmark.pedantic(run_target, ("s2-load-vs-fairness", tmp_path), rounds=1, iterations=1)
    attach_extra_info(benchmark, results)
    by_system = {result.config.system: result.fairness.report for result in results}
    classic = by_system["gossip"]
    fair = by_system["fair-gossip"]
    # Classic gossip: excellent load balance, mediocre fairness.
    assert classic.contribution_jain > 0.9
    assert classic.ratio_jain < classic.contribution_jain
    # Fair gossip closes the gap between the two notions.
    assert fair.ratio_jain > classic.ratio_jain
    # SplitStream balances load better than it aligns work with benefit.
    split = by_system["splitstream"]
    assert split.contribution_jain > split.ratio_jain
