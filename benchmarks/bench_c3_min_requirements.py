"""Experiment C3 (§5.2 challenges 3-4): minimum fanout / payload requirements.

How low can the fair protocol push the contribution of low-benefit nodes
before reliability collapses?  Sweeps the fanout floor (min_fanout) of the
fair protocol under a skewed-interest workload.  Expected shape: reliability
stays near 1 for floors >= 1 with an adequate base fanout, and collapses when
the floor (and base) are driven to 0 — i.e. the fairness levers have a hard
lower bound set by epidemic connectivity, exactly the requirement the paper
asks about.
"""

from __future__ import annotations

from common import attach_extra_info, run_target


def test_c3_minimum_fanout_requirement(benchmark, tmp_path):
    # Points (min_fanout, base fanout, max_fanout) = (0,1,2), (1,2,6), (1,4,12),
    # (2,4,12): driving both to the bottom removes the epidemic safety
    # margin; a floor of 1 with a sensible base keeps it.
    results = benchmark.pedantic(run_target, ("c3-fanout-floor", tmp_path), rounds=1, iterations=1)
    attach_extra_info(benchmark, results)
    ratios = [result.reliability.delivery_ratio for result in results]
    # With floor>=1 and a sensible base fanout the protocol stays reliable...
    assert ratios[2] > 0.97
    assert ratios[3] > 0.97
    # ...and the most aggressive setting is measurably worse than the safest.
    assert ratios[0] < ratios[3]
