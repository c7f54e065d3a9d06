"""Experiment F1 (Figure 1): is contribution/benefit equalised across peers?

Runs the same skewed-interest workload on classic push gossip, fair gossip,
Scribe, SplitStream, brokers, DKS grouping, and data-aware multicast, and
compares the dispersion of per-node contribution/benefit ratios.  Expected
shape: fair gossip and data-aware multicast have the highest ratio-Jain and
the lowest wasted-contribution share; Scribe and brokers the worst; classic
gossip sits in between (great load balance, poor fairness).
"""

from __future__ import annotations

from common import BASE_CONFIG, attach_extra_info, compare_configs, print_results, run_configs

SYSTEMS = ["gossip", "fair-gossip", "pushpull-gossip", "scribe", "splitstream", "dks", "brokers", "dam"]


def run_comparison():
    base = BASE_CONFIG.with_overrides(name="fig1", nodes=96, duration=20.0, drain_time=12.0)
    return run_configs(compare_configs(base, SYSTEMS))


def test_fig1_fairness_ratio_comparison(benchmark):
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print_results("Figure 1 — contribution/benefit ratio equalisation across systems", results)
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
