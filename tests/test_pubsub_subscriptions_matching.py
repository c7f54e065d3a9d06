"""Tests for the subscription table, matching engines, and the delivery log."""

from __future__ import annotations

import random

import pytest

from repro.pubsub import (
    AndFilter,
    AttributeCondition,
    ContentFilter,
    DeliveryLog,
    Event,
    MatchAllFilter,
    MatchingEngine,
    NotFilter,
    OrFilter,
    SubscriptionTable,
    TopicFilter,
)
from tests.conftest import equality_filter


def make_event(event_id="e1", **attributes) -> Event:
    return Event(event_id=event_id, publisher="p", attributes=attributes, published_at=1.0)


_LEVEL_AT_LEAST_2 = ContentFilter(conditions=(AttributeCondition("level", ">=", 2),))
#: Every filter kind, pinned and unpinned, for the differential churn tests.
CHURN_FILTERS = [
    TopicFilter("a"),
    TopicFilter("b"),
    TopicFilter(5),  # pins the raw 5, where the content filter below pins "5"
    equality_filter(topic="a", level=2),
    equality_filter(topic=5),  # pins "5", matches only the integer 5
    _LEVEL_AT_LEAST_2,
    AndFilter((TopicFilter("b"), _LEVEL_AT_LEAST_2)),
    OrFilter((TopicFilter("a"), TopicFilter("b"))),
    OrFilter((TopicFilter("a"), _LEVEL_AT_LEAST_2)),  # one unpinned branch
    NotFilter(TopicFilter("a")),
    MatchAllFilter(),
]
#: String, non-string and absent topics.
CHURN_EVENTS = [
    make_event(f"e{index}", **attributes)
    for index, attributes in enumerate(
        dict(level=level, **topic)
        for level in (1, 2)
        for topic in ({"topic": "a"}, {"topic": "b"}, {"topic": "5"}, {"topic": 5}, {})
    )
]


class TestSubscriptionTable:
    def test_subscribe_creates_active_record(self):
        table = SubscriptionTable()
        subscription = table.subscribe("a", TopicFilter("news"), timestamp=1.0)
        assert subscription.active
        assert table.interested_nodes(make_event(topic="news")) == ["a"]

    def test_unsubscribe_deactivates_and_records_the_time(self):
        table = SubscriptionTable()
        table.subscribe("a", TopicFilter("news"), timestamp=1.0)
        cancelled = table.unsubscribe("a", TopicFilter("news"), timestamp=4.0)
        assert cancelled is not None
        assert not cancelled.active
        assert (cancelled.subscribed_at, cancelled.unsubscribed_at) == (1.0, 4.0)
        assert table.interested_nodes(make_event(topic="news")) == []

    def test_unsubscribe_without_subscription_is_noop(self):
        table = SubscriptionTable()
        assert table.unsubscribe("a", TopicFilter("news")) is None

    def test_unsubscribe_cancels_oldest_first(self):
        table = SubscriptionTable()
        table.subscribe("a", TopicFilter("news"), timestamp=1.0)
        younger = table.subscribe("a", TopicFilter("news"), timestamp=2.0)
        cancelled = table.unsubscribe("a", TopicFilter("news"), timestamp=3.0)
        assert cancelled.subscribed_at == 1.0
        assert younger.active

    def test_unsubscribe_all(self):
        table = SubscriptionTable()
        table.subscribe("a", TopicFilter("news"))
        table.subscribe("a", TopicFilter("sports"))
        cancelled = table.unsubscribe_all("a", timestamp=9.0)
        assert len(cancelled) == 2
        assert all(s.unsubscribed_at == 9.0 for s in cancelled)
        assert table.interested_nodes(make_event(topic="news")) == []
        assert table.interested_nodes(make_event(topic="sports")) == []

    def test_interested_nodes_uses_filters(self):
        table = SubscriptionTable()
        table.subscribe("a", TopicFilter("news"))
        table.subscribe("b", equality_filter(level=3))
        table.subscribe("c", TopicFilter("sports"))
        interested = table.interested_nodes(make_event(topic="news", level=3))
        assert interested == ["a", "b"]

    def test_interested_nodes_equals_brute_force_under_subscription_churn(self):
        # The topic index may only prune candidates that cannot match: every
        # filter kind, pinned and unpinned, against string, non-string and
        # absent topics, while subscriptions come and go.
        nodes = [f"n{index}" for index in range(6)]
        rng = random.Random(17)
        table = SubscriptionTable()
        placed = []  # every subscription the table handed out
        matched = set()
        for step in range(400):
            action = rng.random()
            if action < 0.55:
                placed.append(
                    table.subscribe(rng.choice(nodes), rng.choice(CHURN_FILTERS), timestamp=step)
                )
            elif action < 0.9:
                table.unsubscribe(rng.choice(nodes), rng.choice(CHURN_FILTERS), timestamp=step)
            else:
                table.unsubscribe_all(rng.choice(nodes), timestamp=step)
            for event in CHURN_EVENTS:
                expected = sorted(
                    {s.node_id for s in placed if s.active and s.matches(event)}
                )
                assert table.interested_nodes(event) == expected
                matched.update((event.event_id, node) for node in expected)
        # Guard against a vacuous run: every event was wanted at some point.
        assert {event_id for event_id, _ in matched} == {event.event_id for event in CHURN_EVENTS}
        assert table.total_unsubscribes > 100 and len(table) > 0

    def test_churn_counts(self):
        table = SubscriptionTable()
        table.subscribe("a", TopicFilter("news"))
        table.subscribe("a", TopicFilter("tech"))
        table.unsubscribe("a", TopicFilter("tech"))
        assert table.interested_nodes(make_event(topic="news")) == ["a"]
        assert table.interested_nodes(make_event(topic="tech")) == []
        assert (table.total_subscribes, table.total_unsubscribes) == (2, 1)
        assert len(table) == 1


class TestMatchingEngine:
    def test_match_by_topic(self):
        engine = MatchingEngine()
        engine.add("a", TopicFilter("news"))
        engine.add("b", TopicFilter("news"))
        engine.add("c", TopicFilter("sports"))
        assert engine.match(make_event(topic="news")) == {"a", "b"}
        assert engine.match(make_event(topic="sports")) == {"c"}

    def test_remove_topic_filter(self):
        engine = MatchingEngine()
        engine.add("a", TopicFilter("news"))
        engine.remove("a", TopicFilter("news"))
        assert engine.match(make_event(topic="news")) == set()

    def test_event_without_topic_matches_no_topic_filter(self):
        engine = MatchingEngine()
        engine.add("a", TopicFilter("news"))
        assert engine.match(make_event(level=1)) == set()

    def test_counts_one_entry_per_node_and_filter(self):
        engine = MatchingEngine()
        engine.add("a", TopicFilter("news"))
        engine.add("b", TopicFilter("news"))
        engine.remove("a", TopicFilter("news"))
        assert engine.match(make_event(topic="news")) == {"b"}
        engine.remove("b", TopicFilter("news"))
        assert engine.match(make_event(topic="news")) == set()

    def test_content_match_needs_every_condition(self):
        engine = MatchingEngine()
        engine.add("a", equality_filter(category="metals", level=5))
        engine.add("b", equality_filter(category="metals"))
        assert engine.match(make_event(category="metals", level=5)) == {"a", "b"}
        assert engine.match(make_event(category="metals", level=4)) == {"b"}

    def test_zero_condition_filter_matches_all(self):
        engine = MatchingEngine()
        engine.add("a", ContentFilter())
        assert engine.match(make_event(whatever=1)) == {"a"}
        assert engine.match(make_event(topic="news")) == {"a"}

    def test_remove_content_filter(self):
        engine = MatchingEngine()
        filter_ = equality_filter(category="x")
        engine.add("a", filter_)
        engine.remove("a", filter_)
        assert engine.match(make_event(category="x")) == set()

    def test_duplicate_add_is_idempotent(self):
        engine = MatchingEngine()
        filter_ = equality_filter(category="x")
        engine.add("a", filter_)
        engine.add("a", filter_)
        engine.remove("a", filter_)
        assert engine.match(make_event(category="x")) == set()

    def test_every_filter_kind_in_one_engine(self):
        engine = MatchingEngine()
        engine.add("a", TopicFilter("news"))
        engine.add("b", equality_filter(level=2))
        engine.add("c", MatchAllFilter())
        assert engine.match(make_event(topic="news", level=2)) == {"a", "b", "c"}

    def test_remove_each_kind(self):
        engine = MatchingEngine()
        engine.add("a", TopicFilter("news"))
        engine.add("b", equality_filter(level=2))
        engine.add("c", MatchAllFilter())
        engine.remove("a", TopicFilter("news"))
        engine.remove("b", equality_filter(level=2))
        engine.remove("c", MatchAllFilter())
        assert engine.match(make_event(topic="news", level=2)) == set()

    def test_match_equals_brute_force_under_add_remove_churn(self):
        # The engine holds the first filter added per (node, filter_id);
        # TopicFilter("5") and TopicFilter(5) share the id "topic:5", so
        # whichever came first decides for an event of topic "5" or 5.
        filters = CHURN_FILTERS + [TopicFilter("5"), ContentFilter()]
        nodes = [f"n{index}" for index in range(6)]
        rng = random.Random(23)
        engine = MatchingEngine()
        held = {}
        matched = set()
        for _step in range(400):
            node, filter_ = rng.choice(nodes), rng.choice(filters)
            key = (node, filter_.filter_id)
            if rng.random() < 0.6:
                engine.add(node, filter_)
                held.setdefault(key, filter_)
            else:
                engine.remove(node, filter_)
                held.pop(key, None)
            for event in CHURN_EVENTS:
                expected = {
                    held_node for (held_node, _), held_filter in held.items() if held_filter.matches(event)
                }
                assert engine.match(event) == expected
                matched.update((event.event_id, node) for node in expected)
        # Guard against a vacuous run: every event was wanted at some point.
        assert {event_id for event_id, _ in matched} == {event.event_id for event in CHURN_EVENTS}


class TestDeliveryLog:
    def test_records_and_deduplicates(self):
        log = DeliveryLog()
        event = make_event()
        assert log.record("a", event, delivered_at=2.0) is True
        assert log.record("a", event, delivered_at=3.0) is False
        assert log.delivery_count("a") == 1
        assert [(record.node_id, record.event_id) for record in log.ordered_records()] == [
            ("a", "e1")
        ]
        assert log.total_deliveries() == 1

    def test_per_event_and_per_node_views(self):
        log = DeliveryLog()
        event = make_event()
        other = make_event(event_id="e2")
        log.record("a", event, delivered_at=2.0)
        log.record("b", event, delivered_at=2.5)
        log.record("a", other, delivered_at=3.0)
        records = log.ordered_records()
        assert {record.node_id for record in records if record.event_id == "e1"} == {"a", "b"}
        assert len([record for record in records if record.node_id == "a"]) == 2
        assert sorted({record.node_id for record in records}) == ["a", "b"]
        assert sorted({record.event_id for record in records}) == ["e1", "e2"]

    def test_latencies(self):
        log = DeliveryLog()
        log.record("a", make_event(), delivered_at=2.0)
        assert [record.latency for record in log.ordered_records()] == [1.0]
        record = [record for record in log.ordered_records() if record.node_id == "a"][0]
        assert record.latency == 1.0
