"""Experiment F4 (Figure 4): the basic push gossip algorithm.

Sweeps the fanout F and the message loss rate, measuring delivery ratio and
rounds-to-delivery — the classic epidemic behaviour the fair protocol must
preserve.  Expected shape: reliability rises steeply with F and saturates
near F≈log(n); higher loss shifts the curve but does not break dissemination
once the fanout is comfortably above the threshold; rounds-to-delivery
shrinks as F grows.
"""

from __future__ import annotations

from common import BASE_CONFIG, attach_extra_info, grid_configs, print_results, run_configs


def run_sweeps():
    base = BASE_CONFIG.with_overrides(
        name="fig4",
        system="gossip",
        interest_model="uniform",
        topics_per_node=2,
        topics=4,
        nodes=128,
        duration=15.0,
        drain_time=15.0,
        publication_rate=2.0,
    )
    fanout_results = run_configs(grid_configs(base, {"fanout": [1, 2, 3, 5, 8]}))
    loss_results = run_configs(
        grid_configs(
            base.with_overrides(fanout=4, name="fig4-loss"), {"loss_rate": [0.0, 0.05, 0.1, 0.2]}
        )
    )
    return fanout_results, loss_results


def test_fig4_push_gossip_reliability(benchmark):
    fanout_results, loss_results = benchmark.pedantic(run_sweeps, rounds=1, iterations=1)
    print_results("Figure 4 — push gossip: delivery ratio and rounds vs fanout", fanout_results)
    print_results("Figure 4 — push gossip: delivery ratio vs message loss (F=4)", loss_results)
    attach_extra_info(benchmark, list(fanout_results) + list(loss_results))

    ratios = [result.reliability.delivery_ratio for result in fanout_results]
    # Reliability is monotone (within noise) in the fanout and saturates high.
    assert ratios[-1] > 0.99
    assert ratios[-1] >= ratios[0]
    assert ratios[0] < 1.0 or ratios[0] <= ratios[-1]
    # Latency (in rounds) shrinks as the fanout grows.
    assert (
        fanout_results[-1].reliability.mean_rounds <= fanout_results[0].reliability.mean_rounds
    )
    # Moderate loss degrades reliability only mildly at F=4.
    assert loss_results[-1].reliability.delivery_ratio > 0.9
