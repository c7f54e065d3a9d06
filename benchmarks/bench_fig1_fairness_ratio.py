"""Experiment F1 (Figure 1): is contribution/benefit equalised across peers?

Runs the same skewed-interest workload on classic push gossip, fair gossip,
Scribe, SplitStream, brokers, DKS grouping, and data-aware multicast, and
compares the dispersion of per-node contribution/benefit ratios.  Expected
shape: fair gossip and data-aware multicast have the highest ratio-Jain and
the lowest wasted-contribution share; Scribe and brokers the worst; classic
gossip sits in between (great load balance, poor fairness).
"""

from __future__ import annotations

from common import attach_extra_info, run_target


def test_fig1_fairness_ratio_comparison(benchmark, tmp_path):
    results = benchmark.pedantic(run_target, ("fig1-fairness", tmp_path), rounds=1, iterations=1)
    attach_extra_info(benchmark, results)
    by_system = {result.config.system: result for result in results}
    # The paper's qualitative claims, asserted on the measured shape:
    assert (
        by_system["fair-gossip"].fairness.report.ratio_jain
        > by_system["gossip"].fairness.report.ratio_jain
    )
    assert (
        by_system["scribe"].fairness.report.ratio_jain
        < by_system["fair-gossip"].fairness.report.ratio_jain
    )
    assert by_system["brokers"].fairness.report.wasted_share > 0.5
    for result in results:
        assert result.reliability.delivery_ratio > 0.85
