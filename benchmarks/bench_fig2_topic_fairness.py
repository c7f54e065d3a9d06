"""Experiment F2 (Figure 2): topic-based fairness formula.

Figure 2 defines, for topic-based selection, benefit = delivered events +
placed filters and contribution = published + forwarded messages (including
subscription maintenance).  The experiment gives nodes very different
subscription counts (1..8 topics, Zipf popularity), runs classic and fair
gossip under the *topic-based* policy, and checks that under the fair
protocol a node's contribution tracks its benefit (high rank correlation),
while under the classic protocol contribution is flat regardless of benefit.
"""

from __future__ import annotations

from common import attach_extra_info, print_columns, run_target


def rank_correlation(xs, ys):
    """Spearman rank correlation without scipy (ties broken by order)."""
    def ranks(values):
        order = sorted(range(len(values)), key=lambda index: values[index])
        result = [0.0] * len(values)
        for rank, index in enumerate(order):
            result[index] = float(rank)
        return result

    if len(xs) < 2:
        return 0.0
    rank_x = ranks(xs)
    rank_y = ranks(ys)
    n = len(xs)
    mean = (n - 1) / 2.0
    cov = sum((rank_x[i] - mean) * (rank_y[i] - mean) for i in range(n))
    var_x = sum((rank_x[i] - mean) ** 2 for i in range(n))
    var_y = sum((rank_y[i] - mean) ** 2 for i in range(n))
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / (var_x * var_y) ** 0.5


def test_fig2_topic_based_fairness(benchmark, tmp_path):
    results = benchmark.pedantic(run_target, ("fig2-topic-fairness", tmp_path), rounds=1, iterations=1)
    # The runs score fairness under the topic-based policy, so each node's
    # fairness row holds its topic-based contribution and benefit.
    correlations = {
        result.config.name: rank_correlation(
            [row.benefit for row in result.fairness.per_node],
            [row.contribution for row in result.fairness.per_node],
        )
        for result in results
    }
    print_columns(
        "Figure 2 — benefit/contribution rank correlation",
        {name: {"benefit_contribution_corr": corr} for name, corr in correlations.items()},
    )
    attach_extra_info(benchmark, results)
    benchmark.extra_info["correlations"] = {k: round(v, 4) for k, v in correlations.items()}
    fair_corr = correlations["fig2/fair-gossip"]
    classic_corr = correlations["fig2/gossip"]
    # Fair gossip couples contribution to benefit much more tightly.
    assert fair_corr > classic_corr
    assert fair_corr > 0.5
