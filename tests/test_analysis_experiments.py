"""Tests for the analysis layer and the experiment harness."""

from __future__ import annotations

import pytest

from tests.conftest import build_gossip_system
from repro.analysis import (
    Table,
    compare_systems,
    format_mapping,
    format_table,
    measure_reliability,
    summarise_fairness,
)
from repro.core import EXPRESSIVE_POLICY, TOPIC_BASED_POLICY, WorkLedger
from repro.experiments import (
    ExperimentConfig,
    ParallelSweepExecutor,
    build_popularity,
    build_system,
    build_simulation,
    compare_configs,
    grid_configs,
    resolve_policy,
    results_table,
    run_experiment,
    system_names,
)
from repro.pubsub import DeliveryLog, Event, SubscriptionTable, TopicFilter


class TestTables:
    def test_format_table_alignment_and_precision(self):
        text = format_table(["name", "value"], [["a", 1.23456], ["bbbb", 2]], precision=2)
        lines = text.splitlines()
        assert "name" in lines[0] and "value" in lines[0]
        assert "1.23" in text and "2" in text

    def test_format_mapping(self):
        text = format_mapping({"jain": 0.912, "nodes": 10}, title="summary")
        assert text.startswith("summary")
        assert "jain" in text

    def test_table_incremental_and_unknown_column(self):
        table = Table(["a", "b"], title="t")
        table.add_row(a=1, b=2)
        table.add_row(a=3)
        rendered = table.render()
        assert "t" in rendered and "3" in rendered
        with pytest.raises(KeyError):
            table.add_row(c=1)
        with pytest.raises(ValueError):
            Table([])


class TestReliabilityMeasurement:
    def test_full_delivery_reports_ratio_one(self):
        table = SubscriptionTable()
        log = DeliveryLog()
        table.subscribe("a", TopicFilter("t"))
        table.subscribe("b", TopicFilter("t"))
        event = Event(event_id="e1", publisher="p", attributes={"topic": "t"}, published_at=1.0)
        log.record("a", event, delivered_at=2.0)
        log.record("b", event, delivered_at=3.0)
        report = measure_reliability([event], log, table, round_period=1.0)
        assert report.delivery_ratio == 1.0
        assert report.complete_fraction == 1.0
        assert report.mean_latency == pytest.approx(1.5)
        assert report.mean_rounds == pytest.approx(1.5)
        assert report.events[0].complete

    def test_partial_delivery_detected(self):
        table = SubscriptionTable()
        log = DeliveryLog()
        for node in ("a", "b", "c", "d"):
            table.subscribe(node, TopicFilter("t"))
        event = Event(event_id="e1", publisher="p", attributes={"topic": "t"}, published_at=0.0)
        log.record("a", event, delivered_at=1.0)
        report = measure_reliability([event], log, table)
        assert report.delivery_ratio == pytest.approx(0.25)
        assert report.complete_fraction == 0.0

    def test_uninterested_deliveries_do_not_count(self):
        table = SubscriptionTable()
        log = DeliveryLog()
        table.subscribe("a", TopicFilter("t"))
        event = Event(event_id="e1", publisher="p", attributes={"topic": "t"}, published_at=0.0)
        log.record("a", event, delivered_at=1.0)
        log.record("z", event, delivered_at=1.0)  # z never subscribed
        report = measure_reliability([event], log, table)
        assert report.delivery_ratio == 1.0

    def test_no_events_is_vacuously_reliable(self):
        report = measure_reliability([], DeliveryLog(), SubscriptionTable())
        assert report.delivery_ratio == 1.0
        assert report.summary_row()["events"] == 0.0


class TestFairnessSummaries:
    def build_ledger(self):
        ledger = WorkLedger()
        ledger.record_gossip_send("worker", messages=50, events=100)
        ledger.record_delivery("worker", events=2)
        ledger.record_subscribe("worker")
        ledger.record_delivery("beneficiary", events=30)
        ledger.record_gossip_send("beneficiary", messages=5, events=10)
        ledger.record_subscribe("beneficiary")
        return ledger

    def test_summary_contains_per_node_rows(self):
        summary = summarise_fairness(self.build_ledger(), EXPRESSIVE_POLICY, system_name="unit")
        assert summary.system_name == "unit"
        nodes = {row.node_id for row in summary.per_node}
        assert nodes == {"worker", "beneficiary"}
        top = summary.top_contributors(1)[0]
        assert top.node_id == "worker"
        assert "unit" in summary.render()

    def test_zero_benefit_contributors_listed(self):
        ledger = WorkLedger()
        ledger.record_gossip_send("relay", messages=10)
        ledger.record_delivery("user", events=5)
        summary = summarise_fairness(ledger, EXPRESSIVE_POLICY)
        assert [row.node_id for row in summary.zero_benefit_contributors()] == ["relay"]

    def test_policy_changes_benefit(self):
        ledger = self.build_ledger()
        expressive = summarise_fairness(ledger, EXPRESSIVE_POLICY)
        topic_based = summarise_fairness(ledger, TOPIC_BASED_POLICY)
        worker_expressive = next(r for r in expressive.per_node if r.node_id == "worker")
        worker_topic = next(r for r in topic_based.per_node if r.node_id == "worker")
        assert worker_topic.benefit > worker_expressive.benefit  # filters count

    def test_compare_systems_renders_all_rows(self):
        ledger = self.build_ledger()
        summaries = [
            summarise_fairness(ledger, EXPRESSIVE_POLICY, system_name=name)
            for name in ("one", "two")
        ]
        rendered = compare_systems(summaries)
        assert "one" in rendered and "two" in rendered


class TestExperimentHarness:
    BASE = ExperimentConfig(
        name="unit", nodes=24, topics=6, duration=8.0, drain_time=6.0, publication_rate=2.0, seed=3
    )

    def test_config_overrides_and_ids(self):
        config = self.BASE.with_overrides(nodes=10, name="other")
        assert config.nodes == 10 and config.name == "other"
        assert self.BASE.nodes == 24  # original untouched
        assert len(config.node_ids()) == 10
        assert len(config.publisher_ids()) == max(1, int(10 * config.publisher_fraction))
        assert config.total_time == config.duration + config.drain_time

    def test_resolve_policy(self):
        assert resolve_policy(self.BASE) is EXPRESSIVE_POLICY
        assert resolve_policy(self.BASE.with_overrides(fairness_policy="topic")) is TOPIC_BASED_POLICY
        with pytest.raises(ValueError):
            resolve_policy(self.BASE.with_overrides(fairness_policy="bogus"))

    def test_build_system_supports_every_name(self):
        for system_name in system_names():
            config = self.BASE.with_overrides(system=system_name, nodes=12)
            simulator, network = build_simulation(config)
            popularity = build_popularity(config)
            system = build_system(config, simulator, network, popularity=popularity)
            assert system.node_ids()
        with pytest.raises(ValueError):
            config = self.BASE.with_overrides(system="unknown")
            simulator, network = build_simulation(config)
            build_system(config, simulator, network)

    def test_run_experiment_produces_consistent_result(self):
        result = run_experiment(self.BASE)
        assert result.reliability.delivery_ratio > 0.9
        assert result.fairness.report.node_count == self.BASE.nodes
        assert result.total_deliveries == result.system is None or True
        row = result.summary_row()
        assert row["system"] == "gossip"
        assert 0.0 <= row["delivery_ratio"] <= 1.0

    def test_run_experiment_is_deterministic(self):
        first = run_experiment(self.BASE)
        second = run_experiment(self.BASE)
        assert first.total_messages == second.total_messages
        assert first.reliability.delivery_ratio == second.reliability.delivery_ratio
        assert first.fairness.report.ratio_jain == pytest.approx(second.fairness.report.ratio_jain)

    def test_different_seed_changes_outcome(self):
        first = run_experiment(self.BASE)
        second = run_experiment(self.BASE.with_overrides(seed=99))
        assert first.total_messages != second.total_messages

    def test_sweep_and_compare_helpers(self):
        executor = ParallelSweepExecutor(workers=1)
        base = self.BASE.with_overrides(duration=5.0)
        results = executor.run_many(grid_configs(base, {"fanout": [2, 4]}))
        assert [r.config.fanout for r in results] == [2, 4]
        comparison = executor.run_many(compare_configs(base, ["gossip", "brokers"]))
        assert [r.config.system for r in comparison] == ["gossip", "brokers"]
        table = results_table(results, title="sweep")
        assert "sweep" in table.render()

    def test_churn_and_subscription_churn_run(self):
        config = self.BASE.with_overrides(
            churn_down_probability=0.05, subscription_churn_rate=1.0, duration=6.0
        )
        result = run_experiment(config)
        assert result.reliability.delivery_ratio > 0.5

    def test_keep_system_exposes_live_object(self):
        result = run_experiment(self.BASE.with_overrides(duration=4.0), keep_system=True)
        assert result.system is not None
        assert result.system.node_ids()
