"""Live runtime throughput benchmark (memory transport).

Unlike the simulator benchmarks, this one measures *real* throughput: a
:class:`~repro.runtime.host.NodeHost` cluster on the in-process memory
transport (every message still passes through the full JSON wire codec),
driven by the :class:`~repro.runtime.loadgen.LoadGenerator` at a target
events/sec.  The headline numbers — achieved events/sec, delivery latency
p50/p99 — are printed, attached to ``benchmark.extra_info``, and written to
``BENCH_rt_throughput.json`` (path overridable via ``REPRO_BENCH_RT_JSON``)
so CI and ``make bench-rt`` can track live-runtime regressions.

Environment knobs:

* ``REPRO_BENCH_RT_RATE``     — offered load in events/sec (default 1200).
* ``REPRO_BENCH_RT_NODES``    — cluster size (default 16).
* ``REPRO_BENCH_RT_SECONDS``  — load duration in real seconds (default 3).
* ``REPRO_BENCH_RT_JSON``     — artifact path (default BENCH_rt_throughput.json).
"""

from __future__ import annotations

import asyncio
import json
import os

from repro.pubsub import TopicFilter
from repro.runtime import LoadGenerator, MemoryTransport, NodeHost
from repro.workloads import TopicPopularity, ZipfInterest
from repro.sim.rng import RngRegistry

RATE = float(os.environ.get("REPRO_BENCH_RT_RATE", "1200"))
NODES = int(os.environ.get("REPRO_BENCH_RT_NODES", "16"))
SECONDS = float(os.environ.get("REPRO_BENCH_RT_SECONDS", "3"))
ARTIFACT = os.environ.get("REPRO_BENCH_RT_JSON", "BENCH_rt_throughput.json")

TIME_SCALE = 20.0
SEED = 2007


async def _drive() -> dict:
    host = NodeHost(
        MemoryTransport(),
        seed=SEED,
        time_scale=TIME_SCALE,
        node_kwargs={
            "fanout": 5,
            "gossip_size": 24,
            "round_period": 1.0,
            "buffer_capacity": 4000,
            "selection_strategy": "least-forwarded",
        },
    )
    node_ids = [f"node-{index:03d}" for index in range(NODES)]
    host.add_nodes(node_ids)
    popularity = TopicPopularity.zipf(8, exponent=1.0)
    interest = ZipfInterest(popularity, min_topics=1, max_topics=4).assign(
        node_ids, RngRegistry(SEED).stream("experiment-interest")
    )
    interest.apply(host)
    generator = LoadGenerator(host, rate=RATE, popularity=popularity)
    await host.start()
    report = await generator.run(SECONDS)
    drain = 0.5
    await host.run_for(drain)  # let in-flight events settle
    await host.stop()
    report.latency_seconds = generator.latency_summary_seconds()
    report.deliveries = int(host.telemetry.counter_value("rt.deliveries"))
    report.drain_seconds = drain
    return {
        "schema": "bench-rt-throughput/v1",
        "transport": "memory",
        "nodes": NODES,
        "time_scale": TIME_SCALE,
        "offered_rate": RATE,
        "events_per_sec": report.events_per_second,
        "deliveries_per_sec": report.deliveries_per_second,
        "delivery_latency_p50_seconds": report.latency_seconds.p50,
        "delivery_latency_p99_seconds": report.latency_seconds.p99,
        "published": report.published,
        "deliveries": report.deliveries,
        "frames_sent": host.transport.frames_sent,
        "bytes_sent": host.transport.bytes_sent,
    }


def run_live_cluster() -> dict:
    return asyncio.run(_drive())


def test_rt_throughput(benchmark):
    row = benchmark.pedantic(run_live_cluster, rounds=1, iterations=1)
    benchmark.extra_info["rows"] = [row]
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(row, handle, sort_keys=True, indent=2)
        handle.write("\n")
    print()
    print(
        f"live runtime ({row['nodes']} nodes, memory transport): "
        f"{row['events_per_sec']:.0f} ev/s published, "
        f"{row['deliveries_per_sec']:.0f} deliveries/s, "
        f"latency p50 {row['delivery_latency_p50_seconds'] * 1000:.1f}ms "
        f"p99 {row['delivery_latency_p99_seconds'] * 1000:.1f}ms "
        f"-> {ARTIFACT}")

    # The cluster must keep pace with the offered load (within 15%) and
    # deliver with sub-second latency at the default time scale.
    assert row["events_per_sec"] >= 0.85 * RATE
    assert row["deliveries"] > 0
    assert 0 < row["delivery_latency_p50_seconds"] < 1.0
    assert row["delivery_latency_p99_seconds"] < 5.0
