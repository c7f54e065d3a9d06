"""The six workloads and the inputs generated for them from ``--seed``.

Nothing here imports the program: inputs are plain data (scenario names,
config overrides, interest maps, publication schedules) that the child
process hands to the program's public API.  The same seed always gives the
same inputs; ``--quick`` shrinks every workload to roughly an eighth for the
self-tests.

Why these six (the per-workload ``why`` below is what ``BENCHMARK.json``
carries): two users, the researcher running the discrete-event simulator and
the operator of a live ``NodeHost``; per user, workloads that push different
layers, so that for every optimisation one workload exercises it and another
bypasses it.
"""

from __future__ import annotations

import random
from typing import Dict, List

#: name -> kind, one-line reason (what BENCHMARK.json carries), lowest acceptable delivered_share
WORKLOADS: Dict[str, Dict[str, object]] = {
    "sim-scale-push": {
        "kind": "sim",
        "why": "fig4 push gossip at 384 nodes and a low publication rate: engine queue, sim network send, Cyclon shuffle and round timers do the work; pubsub, core and dht do almost none",
        "floor": 0.99,
    },
    "sim-fair-content": {
        "kind": "sim",
        "why": "fig3 fair gossip with content filters at 20 ev/unit: gossip buffers, content matching and the adaptive fanout/payload controllers dominate; same gossip layer as sim-scale-push used differently",
        "floor": 0.97,
    },
    "sim-lazy-domains-faults": {
        "kind": "sim",
        "why": "lazy push over 4 domains with 10% loss, a healing partition and a crash wave: the slow path of network send, digest/pull recovery, bridges and the fault controller",
        "floor": 0.85,
    },
    "sim-structured": {
        "kind": "sim",
        "why": "fig1 on scribe, dks, splitstream, brokers and dam: bypasses membership and gossip entirely, so gossip optimisations must read unchanged here; the only user of dht, brokers and damulticast",
        "floor": 0.99,
    },
    "live-mem-ladder": {
        "kind": "live",
        "why": "16-node NodeHost on the memory transport, gossip_size 512, open loop at 25 ev/s: large JSON frames make the wire codec the cost; sockets are bypassed",
        "floor": 0.99,
    },
    "live-tcp-small": {
        "kind": "live",
        "why": "32-node NodeHost on loopback TCP, gossip_size 8, open loop at 50 ev/s: many small frames, so per-frame cost in transport, scheduler and runtime network weighs most here and the codec least",
        "floor": 0.99,
    },
}

STRUCTURED_SYSTEMS = ("scribe", "dks", "splitstream", "brokers", "dam")

#: Real seconds a live run keeps listening after the last publication is due.
LIVE_DRAIN_SECONDS = 1.0


def _rng(name: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"perfbench/{name}/{seed}/{purpose}")


def _shrink(value: int, quick: bool, floor: int) -> int:
    return max(floor, value // 8) if quick else value


def _sim_run(scenario: str, **overrides) -> Dict[str, object]:
    return {"scenario": scenario, "overrides": overrides}


def _crash_order(rng: random.Random, nodes: int, victims: int, bridges: int) -> List[str]:
    """Seeded order in which nodes are considered for the crash wave.

    The child crashes the first ``victims`` of these that are not bridges
    (t=4, back at t=7).  Bridges are spared because losing one cuts a whole
    domain off, which makes the delivered share depend on the seed far more
    than on the code under test; the list is long enough to skip them all.
    """
    return [f"node-{index:03d}" for index in rng.sample(range(nodes), victims + bridges)]


def build_inputs(name: str, seed: int, quick: bool = False) -> Dict[str, object]:
    """The generated inputs of one workload: pure function of ``(name, seed, quick)``."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    config_seed = _rng(name, seed, "config").randrange(1, 2**31)
    if name == "sim-scale-push":
        runs = [_sim_run("fig4-push", nodes=_shrink(384, quick, 48), seed=config_seed)]
    elif name == "sim-fair-content":
        runs = [
            _sim_run(
                "fig3-expressive",
                nodes=_shrink(128, quick, 24),
                publication_rate=20.0,
                gossip_size=32,
                seed=config_seed,
            )
        ]
    elif name == "sim-lazy-domains-faults":
        nodes = _shrink(256, quick, 48)
        runs = [
            _sim_run(
                "smoke-domains",
                system="lazy-push",
                nodes=nodes,
                loss_rate=0.1,
                duration=15.0,
                drain_time=12.0,
                publication_rate=8.0,
                gossip_size=16,
                seed=config_seed,
            )
        ]
        victims = max(2, nodes // 48)
        runs[0]["crash_victims"] = victims
        runs[0]["crash_order"] = _crash_order(_rng(name, seed, "crash"), nodes, victims, bridges=8)
    elif name == "sim-structured":
        # fig1's skewed (Zipf) interest makes the number of deliveries, and with
        # it the work, swing by 7-10 % from seed to seed at any affordable size;
        # uniform interest over uniformly popular topics holds it within 1-2 %
        # and takes the same code paths.
        runs = [
            _sim_run(
                "fig1",
                system=system,
                nodes=_shrink(128, quick, 32),
                publication_rate=16.0,
                interest_model="uniform",
                topics_per_node=3,
                topic_exponent=0.0,
                seed=config_seed,
            )
            for system in STRUCTURED_SYSTEMS
        ]
    elif name == "live-mem-ladder":
        return _live_inputs(
            name, seed, transport="memory", nodes=16, time_scale=10.0, gossip_size=512, rate=25.0, quick=quick
        )
    else:
        return _live_inputs(
            name, seed, transport="tcp", nodes=_shrink(32, quick, 8),
            time_scale=10.0, gossip_size=8, rate=50.0, quick=quick,
        )
    return {"kind": "sim", "workload": name, "seed": seed, "runs": runs}


def _live_inputs(
    name: str, seed: int, transport: str, nodes: int, time_scale: float, gossip_size: int, rate: float, quick: bool
) -> Dict[str, object]:
    topics = [f"topic-{index}" for index in range(8)]
    weights = [1.0 / (rank + 1) for rank in range(len(topics))]
    rng = _rng(name, seed, "interest")
    node_ids = [f"node-{index:03d}" for index in range(nodes)]
    interest = {}
    for node_id in node_ids:
        wanted: List[str] = []
        for _ in range(rng.randint(1, 4)):
            choice = rng.choices(topics, weights)[0]
            if choice not in wanted:
                wanted.append(choice)
        interest[node_id] = sorted(wanted)
    return {
        "kind": "live",
        "workload": name,
        "seed": seed,
        "transport": transport,
        "time_scale": time_scale,
        "rate": rate / 2 if quick else rate,
        "host_seed": _rng(name, seed, "host").randrange(1, 2**31),
        "node_kwargs": {
            "fanout": 5,
            "gossip_size": gossip_size,
            "round_period": 1.0,
            "buffer_capacity": 4000,
            "selection_strategy": "least-forwarded",
        },
        "topics": topics,
        "topic_weights": weights,
        "interest": interest,
    }


def build_schedule(inputs: Dict[str, object], load_seconds: float, rate: float) -> List[list]:
    """Open-loop publication schedule: ``[due offset (s), publisher, topic]`` per event.

    One event per ``1/rate`` slot at a seeded-uniform offset inside its slot,
    so the count is the same for every seed while arrivals are not periodic;
    publisher and topic are seeded draws (topics by Zipf weight).
    """
    rng = _rng(str(inputs["workload"]), int(inputs["seed"]), f"schedule/{rate}")
    node_ids = sorted(inputs["interest"])
    slot = 1.0 / rate
    schedule = []
    for index in range(int(load_seconds * rate)):
        schedule.append(
            [
                (index + rng.random()) * slot,
                rng.choice(node_ids),
                rng.choices(inputs["topics"], inputs["topic_weights"])[0],
            ]
        )
    return schedule
