"""Experiment F4 (Figure 4): the basic push gossip algorithm.

Sweeps the fanout F and the message loss rate, measuring delivery ratio and
rounds-to-delivery — the classic epidemic behaviour the fair protocol must
preserve.  Expected shape: on this 128-node population reliability is
already high at F=1 (about 0.99) and saturates at 1 from F=2 on;
rounds-to-delivery shrinks at every step of F; higher loss costs extra
rounds but does not break dissemination once the fanout is comfortably
above the threshold.
"""

from __future__ import annotations

from common import attach_extra_info, run_target


def test_fig4_push_gossip_reliability(benchmark, tmp_path):
    results = benchmark.pedantic(run_target, ("fig4-reliability", tmp_path), rounds=1, iterations=1)
    attach_extra_info(benchmark, results)
    fanout_results = [result for result in results if result.config.name.startswith("fig4/")]
    loss_results = [result for result in results if result.config.name.startswith("fig4-loss/")]

    ratios = [result.reliability.delivery_ratio for result in fanout_results]
    # Reliability is monotone (within noise) in the fanout and saturates high.
    assert ratios[-1] > 0.99
    assert ratios[-1] >= ratios[0]
    # Latency (in rounds) shrinks with every step of the fanout ...
    rounds = [result.reliability.mean_rounds for result in fanout_results]
    assert all(later < earlier for earlier, later in zip(rounds, rounds[1:])), rounds
    # ... and the highest loss costs more rounds than no loss at F=4.
    assert loss_results[-1].reliability.mean_rounds > loss_results[0].reliability.mean_rounds
    # Moderate loss degrades reliability only mildly at F=4.
    assert loss_results[-1].reliability.delivery_ratio > 0.9
