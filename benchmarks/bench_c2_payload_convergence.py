"""Experiment C2 (§5.2 challenge 2): adaptive gossip message size convergence.

Bursty publication: the rate alternates between quiet and busy phases.  The
benchmark measures how the payload controller of high-benefit nodes follows
the phases (larger payloads while busy, fall back towards the floor when
quiet) and that buffers do not grow without bound (backlog floor working).
"""

from __future__ import annotations

from common import attach_extra_info
from repro.analysis.tables import Table
from repro.core import FairGossipSystem
from repro.pubsub import TopicFilter
from repro.sim import Network, Simulator
from repro.workloads import TopicPopularity, TopicPublicationWorkload


def run_bursty(seed: int = 101):
    simulator = Simulator(seed=seed)
    network = Network(simulator)
    node_ids = [f"node-{index:03d}" for index in range(50)]
    system = FairGossipSystem(
        simulator,
        network,
        node_ids,
        node_kwargs={"fanout": 4, "gossip_size": 6, "round_period": 1.0},
    )
    popularity = TopicPopularity.uniform(1, prefix="burst")
    topic = popularity.topics[0]
    subscribers = node_ids[:30]
    for node_id in subscribers:
        system.subscribe(node_id, TopicFilter(topic))
    publishers = node_ids[40:44]
    # Quiet phase, burst phase, quiet phase, burst phase.
    phases = [(1.0, 20.0), (12.0, 20.0), (1.0, 20.0), (12.0, 20.0)]
    start = 1.0
    payload_samples = {"quiet": [], "busy": []}
    for rate, duration in phases:
        workload = TopicPublicationWorkload(
            system, simulator, popularity, publishers=publishers, rate=rate
        )
        workload.start(duration=duration, start_at=start)
        system.run(until=start + duration)
        label = "busy" if rate > 5 else "quiet"
        payload_samples[label].extend(
            system.node(node_id).payload_lever.current for node_id in subscribers
        )
        start += duration
    system.run(until=start + 10.0)
    backlogs = [len(system.node(node_id).buffer) for node_id in node_ids]
    return {
        "mean_payload_quiet": sum(payload_samples["quiet"]) / len(payload_samples["quiet"]),
        "mean_payload_busy": sum(payload_samples["busy"]) / len(payload_samples["busy"]),
        "max_backlog": max(backlogs),
        "deliveries": system.delivery_log.total_deliveries(),
    }


def test_c2_payload_convergence_under_bursts(benchmark):
    row = benchmark.pedantic(run_bursty, rounds=1, iterations=1)
    table = Table(
        ["mean_payload_quiet", "mean_payload_busy", "max_backlog", "deliveries"],
        title="C2 — adaptive gossip message size under bursty publication",
    )
    table.add_row(**row)
    print()
    print(table.render())
    benchmark.extra_info["row"] = row
    # Busy phases drive larger gossip payloads than quiet phases ...
    assert row["mean_payload_busy"] > row["mean_payload_quiet"]
    # ... and the backlog floor keeps buffers bounded (no unbounded growth).
    assert row["max_backlog"] <= 500
    assert row["deliveries"] > 0
