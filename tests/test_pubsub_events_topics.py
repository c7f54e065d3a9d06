"""Tests for events, event factories, topics, and topic hierarchies."""

from __future__ import annotations

import pytest

from repro.pubsub import Event, EventFactory, Topic, TopicHierarchy, TOPIC_ATTRIBUTE, topic_path


class TestEvent:
    def test_topic_property_reads_attribute(self):
        event = Event(event_id="e1", publisher="p", attributes={"topic": "news"})
        assert event.topic == "news"

    def test_topic_is_none_without_attribute(self):
        event = Event(event_id="e1", publisher="p", attributes={"price": 3})
        assert event.topic is None

    def test_attribute_accessor_with_default(self):
        event = Event(event_id="e1", publisher="p", attributes={"price": 3})
        assert event.attribute("price") == 3
        assert event.attribute("missing", default="x") == "x"

    def test_equality_and_hash_by_event_id(self):
        first = Event(event_id="e1", publisher="p", attributes={"a": 1})
        second = Event(event_id="e1", publisher="q", attributes={"b": 2})
        third = Event(event_id="e2", publisher="p")
        assert first == second
        assert hash(first) == hash(second)
        assert first != third
        assert first != "e1"

    def test_with_time_preserves_identity(self):
        event = Event(event_id="e1", publisher="p", attributes={"topic": "t"}, size=4)
        stamped = event.with_time(7.5)
        assert stamped.published_at == 7.5
        assert stamped.event_id == event.event_id
        assert stamped.size == 4
        assert stamped.topic == "t"


class TestEventFactory:
    def test_ids_are_unique_and_prefixed_by_publisher(self):
        factory = EventFactory("node-1")
        ids = {factory.create(topic="t").event_id for _ in range(100)}
        assert len(ids) == 100
        assert all(event_id.startswith("node-1#") for event_id in ids)

    def test_two_publishers_never_collide(self):
        a = EventFactory("a")
        b = EventFactory("b")
        assert a.create().event_id != b.create().event_id

    def test_topic_merged_into_attributes(self):
        factory = EventFactory("p")
        event = factory.create(attributes={"level": 2}, topic="alerts")
        assert event.attributes[TOPIC_ATTRIBUTE] == "alerts"
        assert event.attributes["level"] == 2


class TestTopicPath:
    def test_path_lists_all_prefixes(self):
        assert topic_path("a/b/c") == ["a", "a/b", "a/b/c"]

    def test_single_component(self):
        assert topic_path("sports") == ["sports"]

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            topic_path("")
        with pytest.raises(ValueError):
            topic_path("///")


class TestTopic:
    def test_parent(self):
        assert Topic("a/b").parent_name == "a"
        assert Topic("a").parent_name is None

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Topic("")


class TestTopicHierarchy:
    def test_adding_leaf_adds_ancestors(self):
        hierarchy = TopicHierarchy()
        hierarchy.add("sports/football/uefa")
        assert "sports" in hierarchy
        assert "sports/football" in hierarchy
        assert len(hierarchy) == 3

    def test_descendants(self):
        hierarchy = TopicHierarchy(["a/x/1", "a/x/2", "a/y"])
        assert [topic.name for topic in hierarchy.descendants("a")] == [
            "a/x",
            "a/x/1",
            "a/x/2",
            "a/y",
        ]

    def test_iteration_is_sorted(self):
        hierarchy = TopicHierarchy(["z", "a/b", "a"])
        assert [topic.name for topic in hierarchy] == ["a", "a/b", "z"]
