"""Tests for the workload generators."""

from __future__ import annotations

import random

import pytest

from tests.conftest import build_gossip_system, subscribed
from repro.pubsub import TopicFilter
from repro.workloads import (
    AttributeInterest,
    CommunityInterest,
    ContentPublicationWorkload,
    SubscriptionChurnWorkload,
    TopicPopularity,
    TopicPublicationWorkload,
    UniformInterest,
    ZipfInterest,
)


class TestTopicPopularity:
    def test_uniform_and_zipf_construction(self):
        uniform = TopicPopularity.uniform(4)
        zipf = TopicPopularity.zipf(4, exponent=1.0)
        assert len(uniform.topics) == 4
        assert len(set(uniform.weights)) == 1
        assert zipf.weights[0] > zipf.weights[-1]

    def test_hierarchy_names_contain_separator(self):
        hierarchy = TopicPopularity.hierarchy(2, 3)
        assert len(hierarchy.topics) == 6
        assert all("/" in name for name in hierarchy.topics)

    def test_sample_respects_weights(self):
        popularity = TopicPopularity(topics=["hot", "cold"], weights=[0.95, 0.05])
        rng = random.Random(1)
        draws = [popularity.sample(rng) for _ in range(400)]
        assert draws.count("hot") > 300

    def test_sample_many_distinct(self):
        popularity = TopicPopularity.zipf(6)
        rng = random.Random(2)
        sample = popularity.sample_many(rng, 4, distinct=True)
        assert len(sample) == len(set(sample)) == 4
        assert set(popularity.sample_many(rng, 10, distinct=True)) == set(popularity.topics)

    def test_validation(self):
        with pytest.raises(ValueError):
            TopicPopularity(topics=[], weights=[])
        with pytest.raises(ValueError):
            TopicPopularity(topics=["a"], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            TopicPopularity(topics=["a"], weights=[0.0])


def topics_of(assignment, node_id):
    """Topics pinned by a node's assigned filters."""
    return sorted({topic for f in assignment.filters_of(node_id) for topic in f.topics})


class TestInterestModels:
    def node_ids(self, count=40):
        return [f"node-{index}" for index in range(count)]

    def test_uniform_interest_counts(self):
        popularity = TopicPopularity.uniform(8)
        assignment = UniformInterest(popularity, topics_per_node=3).assign(
            self.node_ids(), random.Random(1)
        )
        assert all(len(assignment.filters_of(node)) == 3 for node in self.node_ids())
        for node in self.node_ids():
            assert set(topics_of(assignment, node)).issubset(set(popularity.topics))

    def test_zipf_interest_has_variation(self):
        popularity = TopicPopularity.zipf(16)
        assignment = ZipfInterest(popularity, min_topics=1, max_topics=8).assign(
            self.node_ids(100), random.Random(2)
        )
        counts = [len(assignment.filters_of(node)) for node in self.node_ids(100)]
        assert min(counts) >= 1 and max(counts) <= 8
        assert len(set(counts)) > 2  # genuinely heterogeneous

    def test_community_interest_clusters(self):
        popularity = TopicPopularity.uniform(8)
        model = CommunityInterest(popularity, communities=4, topics_per_node=2, crossover_probability=0.0)
        assignment = model.assign(self.node_ids(40), random.Random(3))
        # Nodes 0 and 4 are in the same community and share the topic pool.
        assert set(topics_of(assignment, "node-0")).issubset(set(topics_of(assignment, "node-0")))
        community_topics = set(topics_of(assignment, "node-0")) | set(topics_of(assignment, "node-4"))
        other_community = set(topics_of(assignment, "node-1")) | set(topics_of(assignment, "node-5"))
        assert community_topics != other_community

    def test_attribute_interest_filters_and_events(self):
        model = AttributeInterest(filters_per_node=2)
        assignment = model.assign(self.node_ids(10), random.Random(4))
        assert all(len(assignment.filters_of(node)) == 2 for node in self.node_ids(10))
        attributes = model.random_event_attributes(random.Random(5))
        assert set(attributes) == {"category", "level"}

    def test_apply_subscribes_on_system(self):
        system = build_gossip_system(nodes=10, seed=50)
        popularity = TopicPopularity.uniform(4)
        assignment = UniformInterest(popularity, topics_per_node=2).assign(
            system.node_ids(), random.Random(1)
        )
        assignment.apply(system)
        assert all(
            system.ledger.account(node_id).filters_placed == 2 for node_id in system.node_ids()
        )

    def test_validation(self):
        popularity = TopicPopularity.uniform(4)
        with pytest.raises(ValueError):
            UniformInterest(popularity, topics_per_node=0)
        with pytest.raises(ValueError):
            ZipfInterest(popularity, min_topics=3, max_topics=2)
        with pytest.raises(ValueError):
            CommunityInterest(popularity, crossover_probability=1.5)
        with pytest.raises(ValueError):
            AttributeInterest(categories=[])


class TestPublicationWorkloads:
    def test_topic_workload_publishes_at_rate(self):
        system = build_gossip_system(nodes=20, seed=51)
        for node_id in system.node_ids():
            system.subscribe(node_id, TopicFilter("topic-00"))
        popularity = TopicPopularity.uniform(2)
        workload = TopicPublicationWorkload(
            system, system.simulator, popularity, publishers=system.node_ids()[:4], rate=3.0
        )
        scheduled = workload.start(duration=10.0, start_at=1.0)
        system.run(until=30.0)
        assert scheduled == 30
        assert workload.schedule.count() == 30
        assert sum(workload.schedule.by_topic().values()) == 30
        assert system.delivery_log.total_deliveries() > 0

    def test_content_workload_uses_attribute_space(self):
        system = build_gossip_system(nodes=10, seed=52)
        model = AttributeInterest()
        workload = ContentPublicationWorkload(
            system, system.simulator, model, publishers=system.node_ids()[:2], rate=2.0
        )
        workload.start(duration=5.0)
        system.run(until=10.0)
        assert workload.schedule.count() == 10
        assert all("category" in event.attributes for event in workload.schedule.events)

    def test_invalid_workload_parameters(self):
        system = build_gossip_system(nodes=4, seed=53)
        popularity = TopicPopularity.uniform(2)
        with pytest.raises(ValueError):
            TopicPublicationWorkload(system, system.simulator, popularity, publishers=[], rate=1.0)
        with pytest.raises(ValueError):
            TopicPublicationWorkload(
                system, system.simulator, popularity, publishers=["node-0"], rate=0.0
            )


class TestSubscriptionChurn:
    def test_churn_flips_subscriptions(self):
        system = build_gossip_system(nodes=20, seed=54)
        popularity = TopicPopularity.zipf(6)
        churn = SubscriptionChurnWorkload(
            system,
            system.simulator,
            popularity,
            churners=system.node_ids(),
            operations_per_unit=4.0,
        )
        scheduled = churn.start(duration=20.0)
        system.run(until=25.0)
        assert scheduled == 80
        assert churn.stats.total == 80
        assert churn.stats.subscribes >= churn.stats.unsubscribes
        # The subscription table must agree with the workload's view.
        active = churn.active_subscriptions()
        for node_id, topic in active:
            assert subscribed(system.subscriptions, node_id, topic)

    def test_popular_topics_attract_more_churn(self):
        system = build_gossip_system(nodes=20, seed=55)
        popularity = TopicPopularity(topics=["hot", "cold"], weights=[0.9, 0.1])
        churn = SubscriptionChurnWorkload(
            system, system.simulator, popularity, churners=system.node_ids(), operations_per_unit=5.0
        )
        churn.start(duration=40.0)
        system.run(until=45.0)
        assert churn.stats.by_topic.get("hot", 0) > churn.stats.by_topic.get("cold", 0)

    def test_validation(self):
        system = build_gossip_system(nodes=4, seed=56)
        popularity = TopicPopularity.uniform(2)
        with pytest.raises(ValueError):
            SubscriptionChurnWorkload(
                system, system.simulator, popularity, churners=[], operations_per_unit=1.0
            )
        with pytest.raises(ValueError):
            SubscriptionChurnWorkload(
                system,
                system.simulator,
                popularity,
                churners=["node-0"],
                operations_per_unit=0.0,
            )
