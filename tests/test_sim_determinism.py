"""Seed-determinism regression tests.

The runtime-vs-simulator parity test (and the result cache, and the
parallel executor) all lean on one discipline: a simulator run is a pure
function of its master seed, *including* the per-message loss draws of
``repro.sim.network.Network`` and of the topology's geo link profile.  These
tests pin that property down at the byte level: two runs with the same seed
must produce byte-identical traces; a different seed must not.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.experiments import ExperimentConfig, get_scenario, run_experiment
from repro.faults import FaultPlan, FaultSpec
from repro.gossip import GossipSystem
from repro.pubsub import TopicFilter
from repro.sim import RngRegistry, Simulator
from repro.workloads import TopicPopularity, TopicPublicationWorkload
from tests.conftest import geo_network, result_sha


def run_traced_system(seed: int) -> bytes:
    """One small gossip run with per-link latency AND loss, fully traced.

    The trace records every network-level delivery with its timestamps:
    ``delivered_at - sent_at`` is the link's latency (the constant plus the
    geo profile's extra), and a message missing from the trace is (among
    other causes) a loss draw of the network or of the geo profile — so
    byte-identical traces imply identical RNG streams in both.
    """
    simulator = Simulator(seed=seed)
    node_ids = [f"n{i}" for i in range(12)]
    network = geo_network(simulator, node_ids, loss_rate=0.1)
    trace = []
    network.add_delivery_hook(
        lambda message, delivered_at: trace.append(
            [message.sender, message.recipient, message.kind, message.sent_at, delivered_at]
        )
    )
    system = GossipSystem(simulator, network, [f"n{i}" for i in range(12)], bootstrap_degree=4)
    for index, node_id in enumerate(system.node_ids()):
        if index % 2 == 0:
            system.subscribe(node_id, TopicFilter("news"))
    popularity = TopicPopularity.zipf(4, exponent=1.0)
    workload = TopicPublicationWorkload(
        system, simulator, popularity, publishers=system.node_ids()[:3], rate=3.0
    )
    workload.start(duration=8.0, start_at=1.0)
    simulator.run(until=14.0)
    artifact = {
        "trace": trace,
        "published": [event.to_dict() for event in workload.schedule.events],
        "stats": {
            "sent": network.stats.sent,
            "delivered": network.stats.delivered,
            "lost": network.stats.lost,
            "bytes_sent": network.stats.bytes_sent,
            "sent_by_kind": dict(sorted(network.stats.sent_by_kind.items())),
        },
        "deliveries": system.delivery_log.total_deliveries(),
    }
    return json.dumps(artifact, sort_keys=True).encode("utf-8")


class TestSeedDeterminism:
    def test_same_seed_produces_byte_identical_traces(self):
        assert run_traced_system(seed=123) == run_traced_system(seed=123)

    def test_loss_and_geo_latency_actually_drew(self):
        # Guard against the test silently passing on a run where neither
        # loss nor the per-link latencies were ever exercised.
        artifact = json.loads(run_traced_system(seed=123))
        assert artifact["stats"]["lost"] > 0
        latencies = {
            round(entry[4] - entry[3], 9) for entry in artifact["trace"]
        }
        # Intra-domain 0.1, then d0-d1 0.15, d0-d2 0.25, d1-d2 0.2.
        assert latencies == {0.1, 0.15, 0.2, 0.25}

    def test_different_seed_changes_the_trace(self):
        assert run_traced_system(seed=123) != run_traced_system(seed=124)

    def test_full_experiment_artifact_is_byte_identical(self):
        # End-to-end: the whole runner pipeline (interest assignment,
        # workload, churn-free run, fairness + reliability measurement)
        # serializes to identical bytes for identical configs.
        config = ExperimentConfig(
            name="determinism",
            nodes=16,
            topics=4,
            interest_model="zipf",
            max_topics_per_node=3,
            publication_rate=2.0,
            duration=6.0,
            drain_time=4.0,
            loss_rate=0.05,
            seed=77,
        )
        first = json.dumps(run_experiment(config).to_dict(), sort_keys=True)
        second = json.dumps(run_experiment(config).to_dict(), sort_keys=True)
        assert first == second


class TestStructuredBaselinesArePinned:
    """``fig1`` at 32 nodes on every structured baseline, byte for byte.

    Recorded before ``PastryRouter`` got per-key route summaries and the
    subscription oracle its topic index; a digest that moves means routing,
    tree building or reliability accounting changed behaviour.
    """

    FIG1 = get_scenario("fig1").config.with_overrides(nodes=32)

    @pytest.mark.parametrize(
        "system, digest",
        [
            ("scribe", "98a2cce75ebb899d94028f6020fc8df0e1c36997982e16332bfce127b54b22c2"),
            ("dks", "895fbb0ced1fd384731e06dce15c874e8a13600f188eeea9080674ea7e64256a"),
            ("splitstream", "070e00c16f2517c1249f734f11cd0f5556ed12372a0db4be32b5e7988e513142"),
            ("brokers", "6ca4eca6f2a47bd3b46e2ae3653c94c2c6dd22aa42f50d0f9b6945d5c8979c8a"),
            ("dam", "8f381fa891a26191bce238bf220fcad34d85738918e77dc4d6ea4da98664b655"),
        ],
    )
    def test_fig1_result_digest(self, system, digest):
        assert result_sha(run_experiment(self.FIG1.with_overrides(system=system))) == digest

    def test_scribe_with_a_crash_and_recovery(self):
        # The victims are the rendezvous roots of topic-00, topic-01 and
        # topic-03, so popular traffic is re-routed while they are down: the
        # run goes through PastryRouter.set_alive, the one place that
        # invalidates the route summaries, and its digest moves if that is
        # skipped.
        victims = ("node-012", "node-022", "node-018")
        plan = FaultPlan(
            (
                FaultSpec(kind="crash", at=5.0, nodes=victims),
                FaultSpec(kind="recover", at=12.0, nodes=victims),
            )
        )
        config = self.FIG1.with_overrides(system="scribe", fault_plan=plan.entry_pairs())
        assert result_sha(run_experiment(config)) == "1b99d027dee6b11b60a11374886ac73f42ff179021cabc2921938093a2323605"


class TestPerNodeStreamsAreBoundOnce:
    """A node looks its own RNG stream up once, not on every draw.

    Cyclon, lpbcast and push gossip bind theirs at construction, DAM on its
    first spread.  A stream is seeded by its name alone, so a bound one is
    the same ``Random`` the lookup would return: the draws, and every pinned
    digest, stay as they were.
    """

    @pytest.mark.parametrize(
        "scenario, overrides",
        [
            ("smoke", {}),
            ("smoke", {"membership": "lpbcast"}),
            ("smoke-lazy", {}),
            ("smoke", {"system": "dam"}),
        ],
    )
    def test_a_run_looks_each_node_stream_up_once(self, monkeypatch, scenario, overrides):
        lookups = Counter()
        stream = RngRegistry.stream

        def counted(registry, name):
            lookups[name] += 1
            return stream(registry, name)

        monkeypatch.setattr(RngRegistry, "stream", counted)
        run_experiment(get_scenario(scenario).config.with_overrides(**overrides))
        per_node = {name: count for name, count in lookups.items() if ":" in name}
        assert per_node, "the run drew from no per-node stream"
        assert max(per_node.values()) == 1, lookups.most_common(3)
