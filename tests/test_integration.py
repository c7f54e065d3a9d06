"""Integration tests: whole-system scenarios cutting across every layer.

These are the end-to-end checks that the reproduction's qualitative claims —
the ones the benchmarks quantify — actually hold on small instances fast
enough for the regular test run.
"""

from __future__ import annotations

import pytest

from tests.conftest import build_gossip_system
from repro.core import EXPRESSIVE_POLICY, TOPIC_BASED_POLICY, evaluate_fairness
from repro.experiments import (
    ExperimentConfig,
    ParallelSweepExecutor,
    compare_configs,
    run_experiment,
)
from repro.pubsub import TopicFilter
from repro.workloads import TopicPopularity, TopicPublicationWorkload, ZipfInterest


class TestFairnessShapeAcrossSystems:
    """The Figure 1 claim, end to end: fair gossip beats the alternatives."""

    @pytest.fixture(scope="class")
    def comparison(self):
        base = ExperimentConfig(
            name="integration",
            nodes=48,
            topics=8,
            duration=15.0,
            drain_time=10.0,
            publication_rate=3.0,
            seed=11,
        )
        results = ParallelSweepExecutor(workers=1).run_many(
            compare_configs(base, ["gossip", "fair-gossip", "scribe", "brokers", "dam"])
        )
        return {result.config.system: result for result in results}

    def test_every_system_disseminates(self, comparison):
        for name, result in comparison.items():
            assert result.reliability.delivery_ratio > 0.9, name

    def test_fair_gossip_is_fairer_than_classic(self, comparison):
        fair = comparison["fair-gossip"].fairness.report
        classic = comparison["gossip"].fairness.report
        assert fair.ratio_jain > classic.ratio_jain
        assert fair.wasted_share <= classic.wasted_share + 1e-9

    def test_classic_gossip_is_load_balanced_but_unfair(self, comparison):
        classic = comparison["gossip"].fairness.report
        assert classic.contribution_jain > 0.9
        assert classic.ratio_jain < 0.8

    def test_structured_and_broker_systems_are_least_fair(self, comparison):
        fair = comparison["fair-gossip"].fairness.report
        for name in ("scribe", "brokers"):
            assert comparison[name].fairness.report.ratio_jain < fair.ratio_jain, name

    def test_brokers_concentrate_work_on_non_beneficiaries(self, comparison):
        assert comparison["brokers"].fairness.report.wasted_share > 0.8

    def test_dam_is_fair_for_members(self, comparison):
        assert comparison["dam"].fairness.report.ratio_jain > comparison["scribe"].fairness.report.ratio_jain


class TestFairGossipUnderStress:
    def test_reliability_survives_churn_and_loss(self):
        config = ExperimentConfig(
            name="stress",
            system="fair-gossip",
            nodes=40,
            topics=6,
            duration=15.0,
            drain_time=12.0,
            publication_rate=2.0,
            loss_rate=0.05,
            churn_down_probability=0.03,
            churn_up_probability=0.5,
            fanout=4,
            seed=13,
        )
        result = run_experiment(config)
        assert result.reliability.delivery_ratio > 0.85

    def test_subscription_churn_work_is_accounted(self):
        config = ExperimentConfig(
            name="sub-churn",
            system="dks",
            nodes=32,
            topics=6,
            duration=12.0,
            drain_time=8.0,
            publication_rate=1.0,
            subscription_churn_rate=2.0,
            seed=17,
        )
        result = run_experiment(config, keep_system=True)
        totals = result.system.ledger.totals()
        assert totals.subscription_forwards > 0
        assert totals.subscribe_operations > 32  # initial interest + churn

    def test_interest_change_mid_run_shifts_contribution(self):
        system = build_gossip_system(nodes=30, seed=19, fair=True)
        popularity = TopicPopularity.uniform(1, prefix="only")
        topic = popularity.topics[0]
        # Phase 1: the first ten nodes are interested.
        for node_id in system.node_ids()[:10]:
            system.subscribe(node_id, TopicFilter(topic))
        workload = TopicPublicationWorkload(
            system, system.simulator, popularity, publishers=system.node_ids()[:3], rate=3.0
        )
        workload.start(duration=20.0, start_at=1.0)
        system.run(until=21.0)
        sent_in_phase_one = {
            node_id: system.ledger.account(node_id).gossip_messages_sent for node_id in system.node_ids()
        }
        # Phase 2: a disjoint set of nodes becomes interested instead.
        for node_id in system.node_ids()[:10]:
            system.unsubscribe(node_id, TopicFilter(topic))
        for node_id in system.node_ids()[15:25]:
            system.subscribe(node_id, TopicFilter(topic))
        second = TopicPublicationWorkload(
            system, system.simulator, popularity, publishers=system.node_ids()[:3], rate=3.0
        )
        second.start(duration=25.0, start_at=system.simulator.now + 1.0)
        system.run(until=system.simulator.now + 30.0)
        def sent_in_phase_two(node_id):
            return system.ledger.account(node_id).gossip_messages_sent - sent_in_phase_one[node_id]

        new_interested_work = sum(map(sent_in_phase_two, system.node_ids()[15:25]))
        old_interested_work = sum(map(sent_in_phase_two, system.node_ids()[:10]))
        # The adaptive protocol shifts contribution towards the new beneficiaries.
        assert new_interested_work > old_interested_work

    def test_topic_policy_rewards_subscription_heavy_nodes(self):
        config = ExperimentConfig(
            name="policy",
            system="gossip",
            nodes=36,
            topics=10,
            duration=12.0,
            drain_time=8.0,
            publication_rate=2.0,
            fairness_policy="topic",
            interest_model="zipf",
            max_topics_per_node=8,
            seed=23,
        )
        result = run_experiment(config, keep_system=True)
        ledger = result.system.ledger
        benefits = TOPIC_BASED_POLICY.benefits(ledger)
        heavy = max(ledger.node_ids(), key=lambda node: ledger.account(node).filters_placed)
        light = min(ledger.node_ids(), key=lambda node: ledger.account(node).filters_placed)
        if ledger.account(heavy).filters_placed > ledger.account(light).filters_placed:
            assert benefits[heavy] > benefits[light]


class TestDeterminism:
    def test_whole_experiment_reproducible(self):
        config = ExperimentConfig(name="repro", nodes=20, duration=8.0, drain_time=5.0, seed=29)
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.to_dict() == second.to_dict()
        assert [event.event_id for event in first.published_events] == [
            event.event_id for event in second.published_events
        ]
