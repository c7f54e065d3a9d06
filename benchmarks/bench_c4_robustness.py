"""Experiment C4 (§5.2 challenge 5): does adaptation hurt gossip robustness?

Classic vs fair gossip under combined node churn and message loss.  Expected
shape: both protocols keep a high delivery ratio (the gossip robustness the
paper wants preserved), with the fair protocol within a few points of the
classic one at every churn level while remaining fairer.
"""

from __future__ import annotations

from common import attach_extra_info, run_target


def test_c4_robustness_under_churn_and_loss(benchmark, tmp_path):
    results = benchmark.pedantic(run_target, ("c4-robustness", tmp_path), rounds=1, iterations=1)
    attach_extra_info(benchmark, results)
    by_name = {result.config.name: result for result in results}
    for churn in sorted({result.config.churn_down_probability for result in results}):
        classic = by_name[f"c4/gossip/churn_down_probability={churn}"].reliability.delivery_ratio
        fair = by_name[f"c4/fair-gossip/churn_down_probability={churn}"].reliability.delivery_ratio
        # The fair protocol tracks classic gossip's robustness closely.
        assert fair > 0.8
        assert fair >= classic - 0.08
    # Fairness advantage persists even under churn.
    assert (
        by_name["c4/fair-gossip/churn_down_probability=0.05"].fairness.report.ratio_jain
        > by_name["c4/gossip/churn_down_probability=0.05"].fairness.report.ratio_jain
    )
