#!/usr/bin/env python
"""Expressive (content-based) dissemination: a stock-tick scenario (§5.2).

Subscribers place content filters such as ``category == "metals" AND
level >= 6`` over a stream of synthetic quotes — there is no topic to group
on, so the only way to be fair is to modulate each node's fanout and gossip
message size against its measured benefit (Figure 3).  The script runs the
classic protocol and the three fair-protocol ablations (fanout lever only,
payload lever only, both) and prints how each lever moves the fairness
needle.

Run with::

    python examples/stock_filters.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.experiments import ExperimentConfig, results_table, run_experiment
from repro.pubsub import AttributeCondition, ContentFilter


def main() -> None:
    base = ExperimentConfig(
        name="stocks",
        system="fair-gossip",
        nodes=80,
        interest_model="content",   # content filters over (category, level)
        topics_per_node=2,
        fairness_policy="expressive",
        publication_rate=6.0,
        duration=25.0,
        drain_time=15.0,
        fanout=4,
        gossip_size=8,
        seed=1234,
    )
    variants = [
        base.with_overrides(system="gossip", name="stocks/classic"),
        base.with_overrides(adapt_fanout=True, adapt_payload=False, name="stocks/fanout-lever"),
        base.with_overrides(adapt_fanout=False, adapt_payload=True, name="stocks/payload-lever"),
        base.with_overrides(adapt_fanout=True, adapt_payload=True, name="stocks/both-levers"),
    ]
    results = [run_experiment(config, keep_system=True) for config in variants]
    print(
        results_table(
            results,
            title="Stock-tick workload — expressive filters, contribution levers ablated",
        ).render()
    )
    print()
    # Show what the adaptive nodes actually chose, for the 'both levers' run.
    both = results[-1].system
    fanouts = [both.node(node_id).current_fanout() for node_id in both.node_ids()]
    payloads = [both.node(node_id).current_gossip_size() for node_id in both.node_ids()]
    print(
        "fair protocol operating points at the end of the run: "
        f"fanout min/mean/max = {min(fanouts)}/{sum(fanouts)/len(fanouts):.1f}/{max(fanouts)}, "
        f"payload min/mean/max = {min(payloads)}/{sum(payloads)/len(payloads):.1f}/{max(payloads)}"
    )
    # The workload's filters test ``==`` and ``>=``; a subscriber may also
    # write ``prefix`` and ``in`` conditions.  Count the ticks one would take.
    watch = ContentFilter(
        conditions=(AttributeCondition("category", "prefix", "me"), AttributeCondition("level", "in", (4, 5, 6))),
        name="metals-mid",
    )
    ticks = results[-1].published_events
    print(f"{sum(watch.matches(tick) for tick in ticks)} of {len(ticks)} published ticks match {watch.filter_id}")


if __name__ == "__main__":
    main()
