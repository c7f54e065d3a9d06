"""Tests for the work/benefit ledger and the fairness metrics (Figures 1-3)."""

from __future__ import annotations

import pytest

from repro.core import (
    EXPRESSIVE_POLICY,
    BenefitWeights,
    ContributionWeights,
    NodeAccount,
    WorkLedger,
    coefficient_of_variation,
    contribution_benefit_ratios,
    evaluate_fairness,
    gini_coefficient,
    jain_index,
    max_min_spread,
    normalised_ratio_deviation,
    smoothed_ratios,
    wasted_contribution_share,
)


class TestWorkLedger:
    def test_recording_accumulates_counters(self):
        ledger = WorkLedger()
        ledger.record_publish("a")
        ledger.record_gossip_send("a", messages=3, events=12, size=24)
        ledger.record_infrastructure("a", messages=2)
        ledger.record_subscription_forward("a")
        ledger.record_delivery("a", events=4)
        account = ledger.account("a")
        assert account.events_published == 1
        assert account.gossip_messages_sent == 3
        assert account.events_forwarded == 12
        assert account.bytes_forwarded == 24
        assert account.infrastructure_messages == 2
        assert account.subscription_forwards == 1
        assert account.events_delivered == 4

    def test_subscribe_unsubscribe_track_filter_level(self):
        ledger = WorkLedger()
        ledger.record_subscribe("a")
        ledger.record_subscribe("a")
        ledger.record_unsubscribe("a")
        account = ledger.account("a")
        assert account.filters_placed == 1
        assert account.subscribe_operations == 2
        assert account.unsubscribe_operations == 1
        ledger.record_unsubscribe("a")
        ledger.record_unsubscribe("a")
        assert ledger.account("a").filters_placed == 0  # never negative

    def test_unknown_node_returns_empty_account(self):
        ledger = WorkLedger()
        account = ledger.account("ghost")
        assert account.events_published == 0
        assert "ghost" not in ledger.node_ids()
        ledger.ensure_node("ghost")
        assert "ghost" in ledger.node_ids()

    def test_totals(self):
        ledger = WorkLedger()
        ledger.record_publish("a")
        ledger.record_publish("b")
        ledger.record_delivery("b")
        totals = ledger.totals()
        assert totals.events_published == 2
        assert totals.events_delivered == 1

    def test_record_crash(self):
        ledger = WorkLedger()
        ledger.record_crash("a")
        assert ledger.account("a").crashes == 1


class TestWeights:
    def test_contribution_weights_default_count_messages(self):
        account = NodeAccount(
            node_id="a",
            events_published=2,
            gossip_messages_sent=5,
            infrastructure_messages=3,
            subscription_forwards=1,
            events_forwarded=40,
            bytes_forwarded=100,
        )
        weights = ContributionWeights()
        assert weights.contribution(account) == 2 + 5 + 3 + 1

    def test_payload_weighted_contribution(self):
        account = NodeAccount(node_id="a", gossip_messages_sent=2, events_forwarded=10)
        weights = ContributionWeights(per_gossip_message=1.0, per_event_forwarded=0.5)
        assert weights.contribution(account) == 2 + 5.0

    def test_benefit_weights_figure2_vs_figure3(self):
        account = NodeAccount(node_id="a", events_delivered=6, filters_placed=3)
        expressive = BenefitWeights(per_delivery=1.0, per_filter=0.0)
        topic_based = BenefitWeights(per_delivery=1.0, per_filter=1.0)
        assert expressive.benefit(account) == 6
        assert topic_based.benefit(account) == 9

    def test_ledger_level_aggregation(self):
        ledger = WorkLedger()
        ledger.record_gossip_send("a", messages=4)
        ledger.record_delivery("b", events=2)
        assert EXPRESSIVE_POLICY.contributions(ledger) == {"a": 4.0, "b": 0.0}
        assert EXPRESSIVE_POLICY.benefits(ledger) == {"a": 0.0, "b": 2.0}


class TestFairnessIndices:
    def test_jain_index_bounds(self):
        assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)
        assert jain_index([]) == 1.0
        assert jain_index([0, 0]) == 1.0

    def test_gini_bounds(self):
        assert gini_coefficient([3, 3, 3]) == pytest.approx(0.0, abs=1e-9)
        assert gini_coefficient([0, 0, 0, 12]) > 0.7
        assert gini_coefficient([]) == 0.0

    def test_coefficient_of_variation(self):
        assert coefficient_of_variation([2, 2, 2]) == 0.0
        assert coefficient_of_variation([1, 3]) > 0.0
        assert coefficient_of_variation([]) == 0.0

    def test_max_min_spread(self):
        assert max_min_spread([2, 4, 8]) == 4.0
        assert max_min_spread([5]) == 1.0
        assert max_min_spread([0, 0]) == 1.0

    def test_ratios_cap_zero_benefit_contributors(self):
        ratios = contribution_benefit_ratios({"a": 10, "b": 10}, {"a": 5, "b": 0})
        assert ratios["a"] == 2.0
        assert ratios["b"] == pytest.approx(1e6)
        idle = contribution_benefit_ratios({"c": 0}, {"c": 0})
        assert idle["c"] == 0.0

    def test_smoothed_ratios_stay_finite_and_ordered(self):
        smoothed = smoothed_ratios({"a": 10, "b": 10}, {"a": 9, "b": 0}, smoothing=1.0)
        assert smoothed["a"] == 1.0
        assert smoothed["b"] == 10.0
        with pytest.raises(ValueError):
            smoothed_ratios({}, {}, smoothing=0.0)

    def test_wasted_contribution_share(self):
        share = wasted_contribution_share({"a": 30, "b": 70}, {"a": 0, "b": 5})
        assert share == pytest.approx(0.3)
        assert wasted_contribution_share({}, {}) == 0.0

    def test_normalised_ratio_deviation(self):
        assert normalised_ratio_deviation({"a": 2.0, "b": 2.0}) == 0.0
        assert normalised_ratio_deviation({"a": 1.0, "b": 3.0}) == pytest.approx(0.5)
        assert normalised_ratio_deviation({}) == 0.0


class TestEvaluateFairness:
    def test_perfectly_fair_system(self):
        contributions = {f"n{i}": 10.0 for i in range(8)}
        benefits = {f"n{i}": 5.0 for i in range(8)}
        report = evaluate_fairness(contributions, benefits)
        assert report.ratio_jain == pytest.approx(1.0)
        assert report.wasted_share == 0.0
        assert report.exploited == 0
        assert report.ratio_spread == pytest.approx(1.0)

    def test_scribe_like_unfairness_detected(self):
        # Two interior nodes do most of the work with zero benefit.
        contributions = {"relay1": 100.0, "relay2": 80.0}
        benefits = {"relay1": 0.0, "relay2": 0.0}
        for index in range(10):
            contributions[f"leaf{index}"] = 2.0
            benefits[f"leaf{index}"] = 10.0
        report = evaluate_fairness(contributions, benefits)
        assert report.wasted_share > 0.85
        assert report.ratio_jain < 0.5
        assert report.exploited >= 2

    def test_load_balanced_but_unfair(self):
        # Equal contributions, very different benefits: load balancing looks
        # perfect, fairness does not (the §3.1 vs §3.2 distinction).
        contributions = {f"n{i}": 10.0 for i in range(10)}
        benefits = {f"n{i}": (20.0 if i < 5 else 1.0) for i in range(10)}
        report = evaluate_fairness(contributions, benefits)
        assert report.contribution_jain == pytest.approx(1.0)
        assert report.ratio_jain < 0.75

    def test_freerider_detection(self):
        contributions = {"worker": 50.0, "freerider": 1.0}
        benefits = {"worker": 10.0, "freerider": 10.0}
        for index in range(8):
            contributions[f"n{index}"] = 20.0
            benefits[f"n{index}"] = 10.0
        report = evaluate_fairness(contributions, benefits)
        assert report.freeriders >= 1
