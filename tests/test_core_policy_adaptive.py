"""Tests for fairness policies, benefit estimators, and the contribution lever."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import (
    BenefitEstimator,
    ContributionLever,
    EXPRESSIVE_POLICY,
    Ewma,
    FANOUT,
    PAYLOAD,
    TOPIC_BASED_POLICY,
    WorkLedger,
)
from repro.core.accounting import BenefitWeights, ContributionWeights, NodeAccount


class TestFairnessPolicy:
    def test_expressive_policy_ignores_filters(self):
        account = NodeAccount(node_id="a", events_delivered=4, filters_placed=10)
        assert EXPRESSIVE_POLICY.benefit(account) == 4.0

    def test_topic_policy_counts_filters_when_quiet(self):
        account = NodeAccount(node_id="a", events_delivered=0, filters_placed=3)
        assert TOPIC_BASED_POLICY.benefit(account, busyness=0.0) == 3.0

    def test_topic_policy_fades_filter_term_when_busy(self):
        account = NodeAccount(node_id="a", events_delivered=0, filters_placed=3)
        quiet = TOPIC_BASED_POLICY.benefit(account, busyness=0.0)
        busy = TOPIC_BASED_POLICY.benefit(account, busyness=20.0)
        assert busy < quiet

    def test_policy_level_ledger_aggregation(self):
        ledger = WorkLedger()
        ledger.record_delivery("a", events=5)
        ledger.record_subscribe("a")
        ledger.record_gossip_send("b", messages=7)
        contributions = TOPIC_BASED_POLICY.contributions(ledger)
        benefits = TOPIC_BASED_POLICY.benefits(ledger)
        assert contributions["b"] == 7.0
        assert benefits["a"] > 0


class TestEwmaAndEstimator:
    def test_ewma_first_observation_is_exact(self):
        ewma = Ewma(alpha=0.5)
        assert ewma.observe(10.0) == 10.0

    def test_ewma_smooths_towards_new_samples(self):
        ewma = Ewma(alpha=0.5)
        ewma.observe(0.0)
        assert ewma.observe(10.0) == 5.0
        assert ewma.value == 5.0 and ewma.observations == 2

    def test_ewma_invalid_alpha(self):
        with pytest.raises(ValueError):
            Ewma(alpha=0.0)

    def test_relative_benefit_neutral_without_data(self):
        estimator = BenefitEstimator()
        assert estimator.relative_benefit() == 1.0

    def test_relative_benefit_tracks_ratio(self):
        estimator = BenefitEstimator(own_alpha=1.0, peer_alpha=1.0)
        estimator.observe_own_round(8.0)
        estimator.observe_peer_rate(2.0)
        assert estimator.relative_benefit() == pytest.approx(4.0)

    def test_zero_population_rate_boosts_benefiting_node(self):
        estimator = BenefitEstimator(own_alpha=1.0, peer_alpha=1.0)
        estimator.observe_own_round(3.0)
        estimator.observe_peer_rate(0.0)
        assert estimator.relative_benefit() == 2.0
        quiet = BenefitEstimator(own_alpha=1.0, peer_alpha=1.0)
        quiet.observe_own_round(0.0)
        quiet.observe_peer_rate(0.0)
        assert quiet.relative_benefit() == 1.0

    def test_negative_peer_rates_clamped(self):
        estimator = BenefitEstimator(peer_alpha=1.0)
        estimator.observe_peer_rate(-5.0)
        assert estimator.population_rate == 0.0


def fanout_lever(base=4, floor=1, ceiling=12, smoothing=1.0):
    return ContributionLever(FANOUT, base, floor, ceiling, smoothing=smoothing)


def payload_lever(base=8, floor=1, ceiling=32, smoothing=1.0, kind=PAYLOAD):
    return ContributionLever(kind, base, floor, ceiling, smoothing=smoothing)


def observe(lever, peer_rate, own_deliveries, backlog=0, rounds=1):
    """``rounds`` rounds as a node runs them: peer rate in, own round in, re-plan."""
    for _ in range(rounds):
        lever.estimator.observe_peer_rate(peer_rate)
        lever.estimator.observe_own_round(own_deliveries)
        lever.recompute(backlog)


class TestLeverRange:
    def test_clamp(self):
        for relative, expected in ((0.1, 2), (1.35, 5), (24.75, 8)):
            lever = fanout_lever(base=4, floor=2, ceiling=8)
            observe(lever, peer_rate=1.0, own_deliveries=relative)
            assert lever.current == expected

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            fanout_lever(base=1, floor=2, ceiling=3)
        with pytest.raises(ValueError):
            payload_lever(base=1, floor=2, ceiling=4)

    def test_lowest_floor_is_the_kinds(self):
        assert fanout_lever(floor=0).floor == 0
        with pytest.raises(ValueError):
            fanout_lever(floor=-1)
        with pytest.raises(ValueError):
            payload_lever(floor=0)


class TestFanoutLever:
    def test_high_benefit_node_raises_fanout(self):
        lever = fanout_lever()
        observe(lever, peer_rate=1.0, own_deliveries=4.0, rounds=10)
        assert lever.current > 4

    def test_low_benefit_node_drops_to_floor(self):
        lever = fanout_lever()
        observe(lever, peer_rate=5.0, own_deliveries=0.0, rounds=10)
        assert lever.current == 1

    def test_neutral_node_stays_at_base(self):
        lever = fanout_lever()
        observe(lever, peer_rate=2.0, own_deliveries=2.0, rounds=10)
        assert lever.current == 4

    def test_backlog_is_not_an_input(self):
        lever = fanout_lever()
        observe(lever, peer_rate=5.0, own_deliveries=0.0, backlog=400, rounds=10)
        assert lever.current == 1

    def test_convergence_measurement(self):
        lever = fanout_lever()
        observe(lever, peer_rate=1.0, own_deliveries=1.0, rounds=12)
        # Five identical recommendations in a row, starting by round 5.
        history = lever.history
        assert any(len(set(history[start : start + 5])) == 1 for start in range(5))

    def test_reacts_to_interest_change(self):
        lever = fanout_lever(ceiling=16, smoothing=0.6)
        observe(lever, peer_rate=2.0, own_deliveries=0.0, rounds=15)
        low = lever.current
        observe(lever, peer_rate=2.0, own_deliveries=8.0, rounds=15)
        assert lever.current > low


class TestPayloadLever:
    def test_scaling_with_relative_benefit(self):
        lever = payload_lever()
        observe(lever, peer_rate=1.0, own_deliveries=3.0, rounds=10)
        assert lever.current > 8

    def test_backlog_floor_prevents_starving_the_buffer(self):
        lever = payload_lever(kind=replace(PAYLOAD, backlog_fraction=0.5))
        observe(lever, peer_rate=10.0, own_deliveries=0.0, backlog=20, rounds=10)
        assert lever.current >= 10

    def test_floor_and_cap_respected(self):
        lever = payload_lever(base=4, floor=2, ceiling=6)
        observe(lever, peer_rate=100.0, own_deliveries=0.0, rounds=10)
        assert lever.current == 2
        observe(lever, peer_rate=0.01, own_deliveries=50.0, rounds=30)
        assert lever.current == 6

    def test_convergence_history(self):
        lever = payload_lever()
        observe(lever, peer_rate=1.0, own_deliveries=1.0, rounds=8)
        history = lever.history
        assert any(len(set(history[start : start + 3])) == 1 for start in range(len(history) - 2))

    def test_invalid_backlog_fraction(self):
        with pytest.raises(ValueError):
            replace(PAYLOAD, backlog_fraction=1.5)
