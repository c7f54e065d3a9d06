"""Experiment F3 (Figure 3): expressive fairness via fanout and message size.

Content-based filters over a synthetic attribute space (no topics to group
by), with the contribution levers ablated: fanout adaptation only, payload
adaptation only, both, neither (= classic).  Figure 3's claim is that both
levers modulate contribution against benefit (= #delivered); the expected
shape is that each lever alone improves fairness over the classic baseline
and both together improve it the most, at unchanged delivery ratio.
"""

from __future__ import annotations

from common import attach_extra_info, run_target


def test_fig3_expressive_fairness_levers(benchmark, tmp_path):
    results = benchmark.pedantic(run_target, ("fig3-levers", tmp_path), rounds=1, iterations=1)
    attach_extra_info(benchmark, results)
    by_name = {result.config.name: result.fairness.report for result in results}
    classic = by_name["fig3/classic"]
    both = by_name["fig3/both"]
    fanout_only = by_name["fig3/fanout-only"]
    assert both.ratio_jain > classic.ratio_jain
    assert fanout_only.ratio_jain > classic.ratio_jain
    # Reliability must not be sacrificed for fairness.
    for result in results:
        assert result.reliability.delivery_ratio > 0.9
