#!/usr/bin/env python
"""Churn resilience: fairness without giving up gossip's robustness.

The paper motivates fairness with churn — participants who feel exploited
leave abruptly — and simultaneously demands that a fair protocol keep the
robustness that makes gossip attractive (§5.2).  This script subjects
classic and fair gossip to increasing node churn plus 5% message loss and a
mid-run network partition, and reports delivery ratio and fairness side by
side.

Run with::

    python examples/churn_resilience.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.analysis import Table
from repro.experiments import ExperimentConfig, run_experiment
from repro.pubsub import TopicFilter
from repro.faults import PartitionInjector
from repro.workloads import TopicPopularity, TopicPublicationWorkload
from repro.experiments.scenarios import build_simulation, build_system


def churn_sweep() -> None:
    table = Table(
        ["system", "churn", "delivery_ratio", "ratio_jain", "wasted_share"],
        title="Delivery and fairness under node churn (plus 5% message loss)",
    )
    for system in ("gossip", "fair-gossip"):
        for churn in (0.0, 0.03, 0.08):
            config = ExperimentConfig(
                name=f"churn/{system}/{churn}",
                system=system,
                nodes=72,
                topics=8,
                duration=20.0,
                drain_time=15.0,
                publication_rate=3.0,
                loss_rate=0.05,
                churn_down_probability=churn,
                churn_up_probability=0.5,
                fanout=4,
                seed=31,
            )
            result = run_experiment(config)
            table.add_row(
                system=system,
                churn=churn,
                delivery_ratio=result.reliability.delivery_ratio,
                ratio_jain=result.fairness.report.ratio_jain,
                wasted_share=result.fairness.report.wasted_share,
            )
    print(table.render())


def partition_demo() -> None:
    """A 10-round network partition: gossip heals itself once it lifts."""
    config = ExperimentConfig(
        name="partition", system="fair-gossip", nodes=60, topics=4, duration=0.0, seed=17
    )
    simulator, network = build_simulation(config)
    system = build_system(config, simulator, network)
    for node_id in system.node_ids():
        system.subscribe(node_id, TopicFilter("alerts"))
    popularity = TopicPopularity.uniform(1, prefix="alerts")
    # Rename the single generated topic to the subscribed one.
    popularity = TopicPopularity(topics=["alerts"], weights=[1.0])
    workload = TopicPublicationWorkload(
        system, simulator, popularity, publishers=system.node_ids()[:3], rate=2.0
    )
    workload.start(duration=40.0, start_at=1.0)
    PartitionInjector(simulator, network).split_in_two(
        system.node_ids(), time=10.0, heal_after=10.0
    )
    simulator.run(until=70.0)
    delivered = system.delivery_log.total_deliveries()
    expected = len(workload.schedule.events) * len(system.node_ids())
    print(
        f"\n10-round partition at t=10: delivered {delivered} of {expected} "
        f"({delivered / expected:.1%}) — dissemination resumes once the partition heals"
    )


def main() -> None:
    churn_sweep()
    partition_demo()


if __name__ == "__main__":
    main()
