#!/usr/bin/env python
"""Topic-based news dissemination with skewed popularity (§5.1 scenario).

A news service with 24 topics whose popularity follows a Zipf law: a few
topics (breaking news, sports) attract most subscribers and most traffic,
the tail barely any.  Compares classic gossip, fair gossip, and Scribe under
the *topic-based* fairness policy of Figure 2 (benefit counts both delivered
events and placed filters) and prints the paper-style comparison table.

Run with::

    python examples/news_topics.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.analysis import compare_systems, summarise_fairness
from repro.core import TOPIC_BASED_POLICY
from repro.experiments import (
    ExperimentConfig,
    ParallelSweepExecutor,
    compare_configs,
    results_table,
)


def main() -> None:
    base = ExperimentConfig(
        name="news",
        nodes=96,
        topics=24,
        topic_exponent=1.2,          # strongly skewed topic popularity
        interest_model="zipf",       # subscription counts differ per reader
        max_topics_per_node=8,
        publication_rate=5.0,
        duration=25.0,
        drain_time=15.0,
        fairness_policy="topic",     # Figure 2 weights
        seed=42,
    )
    results = ParallelSweepExecutor(workers=1).run_many(
        compare_configs(base, ["gossip", "fair-gossip", "scribe"]), keep_system=True
    )

    print(results_table(results, title="News workload — reliability and fairness").render())
    print()
    summaries = [
        summarise_fairness(result.system.ledger, TOPIC_BASED_POLICY, system_name=result.config.name)
        for result in results
    ]
    print(compare_systems(summaries))
    print()
    for result, summary in zip(results, summaries):
        exploited = summary.zero_benefit_contributors()
        print(
            f"{result.config.name}: {len(exploited)} nodes work without any benefit "
            f"(they forward news they never asked for)"
        )


if __name__ == "__main__":
    main()
