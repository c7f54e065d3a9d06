"""Tests for the broker baseline and data-aware multicast."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.brokers import BrokerSystem
from repro.core import EXPRESSIVE_POLICY, evaluate_fairness
from repro.damulticast import DataAwareMulticastSystem
from repro.pubsub import TopicFilter, TopicHierarchy
from repro.pubsub.topics import topic_path
from repro.sim import Network, Simulator
from tests.conftest import equality_filter


def make_ids(count):
    return [f"c{index:02d}" for index in range(count)]


class TestBrokerSystem:
    def build(self, count=20, brokers=2, seed=30):
        simulator = Simulator(seed=seed)
        network = Network(simulator)
        ids = make_ids(count)
        return BrokerSystem(simulator, network, ids, broker_count=brokers), simulator, ids

    def test_topic_subscription_delivery(self):
        system, simulator, ids = self.build()
        for index, node_id in enumerate(ids):
            system.subscribe(node_id, TopicFilter("news" if index % 2 == 0 else "sports"))
        system.publish(ids[1], topic="news")
        simulator.run(until=simulator.now + 5)
        assert system.delivery_log.total_deliveries() == 10

    def test_content_subscription_delivery(self):
        system, simulator, ids = self.build(count=10, seed=31)
        system.subscribe(ids[0], equality_filter(category="metals"))
        system.subscribe(ids[1], equality_filter(category="energy"))
        system.publish(ids[2], category="metals", level=5)
        simulator.run(until=simulator.now + 5)
        assert sorted({record.node_id for record in system.delivery_log.ordered_records()}) == [ids[0]]

    def test_cross_broker_forwarding(self):
        system, simulator, ids = self.build(count=10, brokers=2, seed=32)
        # Clients are assigned round-robin, so ids[0] and ids[1] have
        # different home brokers; a publication by ids[1] must still reach
        # ids[0] through broker-to-broker forwarding.
        system.subscribe(ids[0], TopicFilter("t"))
        system.publish(ids[1], topic="t")
        simulator.run(until=simulator.now + 5)
        assert system.delivery_log.delivery_count(ids[0]) == 1
        interbroker = sum(
            system.ledger.account(broker).gossip_messages_sent for broker in sorted(system.brokers)
        )
        assert interbroker > 0

    def test_single_broker_system_works(self):
        system, simulator, ids = self.build(count=8, brokers=1, seed=33)
        for node_id in ids:
            system.subscribe(node_id, TopicFilter("t"))
        system.publish(ids[0], topic="t")
        simulator.run(until=simulator.now + 5)
        assert system.delivery_log.total_deliveries() == 8

    def test_unsubscribe_stops_delivery(self):
        system, simulator, ids = self.build(count=6, seed=34)
        system.subscribe(ids[0], TopicFilter("t"))
        simulator.run(until=simulator.now + 2)
        system.unsubscribe(ids[0], TopicFilter("t"))
        simulator.run(until=simulator.now + 2)
        system.publish(ids[1], topic="t")
        simulator.run(until=simulator.now + 5)
        assert system.delivery_log.delivery_count(ids[0]) == 0

    def test_brokers_deliver_to_exactly_the_oracle_set(self):
        # TopicFilter("5") and TopicFilter(5) share a filter id; only the raw
        # 5 matches an event of topic 5, and equality_filter(topic=5) pins
        # the string "5" but compares the raw value.
        system, simulator, ids = self.build(count=4, brokers=2, seed=36)
        system.subscribe(ids[1], TopicFilter("5"))
        system.subscribe(ids[2], TopicFilter(5))
        system.subscribe(ids[3], equality_filter(topic=5))
        simulator.run(until=simulator.now + 2)
        event = system.publish(ids[0], topic=5)
        simulator.run(until=simulator.now + 5)
        assert system.interested_nodes(event) == [ids[2], ids[3]]
        assert sorted({record.node_id for record in system.delivery_log.ordered_records()}) == system.interested_nodes(event)

    def test_brokers_carry_nearly_all_contribution(self):
        system, simulator, ids = self.build(count=30, brokers=2, seed=35)
        for node_id in ids:
            system.subscribe(node_id, TopicFilter("t"))
        for index in range(20):
            system.publish(ids[index % len(ids)], topic="t")
            simulator.run(until=simulator.now + 0.2)
        simulator.run(until=simulator.now + 5)
        report = evaluate_fairness(
            EXPRESSIVE_POLICY.contributions(system.ledger),
            EXPRESSIVE_POLICY.benefits(system.ledger),
        )
        assert report.wasted_share > 0.8  # brokers work, clients benefit
        broker_sends = sum(
            system.ledger.account(broker).gossip_messages_sent for broker in sorted(system.brokers)
        )
        client_sends = sum(
            system.ledger.account(client).gossip_messages_sent for client in ids
        )
        assert broker_sends > client_sends

    def test_duplicate_event_not_redelivered(self):
        system, simulator, ids = self.build(count=6, brokers=2, seed=36)
        system.subscribe(ids[0], TopicFilter("t"))
        event = system.publish(ids[1], topic="t")
        simulator.run(until=simulator.now + 5)
        # Re-inject the same event id; brokers must drop it as already seen.
        system.clients[ids[1]].publish(event)
        simulator.run(until=simulator.now + 5)
        assert system.delivery_log.delivery_count(ids[0]) == 1

    def test_invalid_construction(self):
        simulator = Simulator(seed=1)
        network = Network(simulator)
        with pytest.raises(ValueError):
            BrokerSystem(simulator, network, [], broker_count=1)
        with pytest.raises(ValueError):
            BrokerSystem(simulator, network, make_ids(2), broker_count=0)


class TestDataAwareMulticast:
    def build(self, count=30, seed=40, fanout=4, delegates=2):
        simulator = Simulator(seed=seed)
        network = Network(simulator)
        ids = make_ids(count)
        hierarchy = TopicHierarchy(["sports/football", "sports/tennis", "tech/ai"])
        system = DataAwareMulticastSystem(
            simulator,
            network,
            ids,
            hierarchy=hierarchy,
            fanout=fanout,
            delegates_per_root=delegates,
        )
        return system, simulator, ids

    def test_subscribers_deliver_their_topic(self):
        system, simulator, ids = self.build()
        for index, node_id in enumerate(ids[:20]):
            topic = "sports/football" if index % 2 == 0 else "tech/ai"
            system.subscribe(node_id, TopicFilter(topic))
        for index in range(10):
            system.publish(ids[25], topic="sports/football")
            simulator.run(until=simulator.now + 0.5)
        simulator.run(until=simulator.now + 10)
        football_subscribers = {ids[index] for index in range(0, 20, 2)}
        delivered = {record.node_id for record in system.delivery_log.ordered_records()}
        assert delivered.issubset(football_subscribers)
        assert len(delivered) >= 0.8 * len(football_subscribers)

    def test_non_subscribers_do_not_deliver(self):
        system, simulator, ids = self.build(count=12, seed=41)
        system.subscribe(ids[0], TopicFilter("tech/ai"))
        system.publish(ids[1], topic="sports/football")
        simulator.run(until=simulator.now + 10)
        assert system.delivery_log.total_deliveries() == 0

    def test_publisher_outside_group_uses_delegate(self):
        system, simulator, ids = self.build(count=20, seed=42)
        for node_id in ids[:6]:
            system.subscribe(node_id, TopicFilter("sports/football"))
        # ids[15] never subscribed; its publication must be handed off.
        system.publish(ids[15], topic="sports/football")
        simulator.run(until=simulator.now + 10)
        assert system.delivery_log.total_deliveries() >= 4
        assert system.delegates()  # delegates were recruited

    def test_delegates_forward_topics_they_do_not_deliver(self):
        system, simulator, ids = self.build(count=24, seed=43)
        for node_id in ids[:8]:
            system.subscribe(node_id, TopicFilter("sports/football"))
        for node_id in ids[8:12]:
            system.subscribe(node_id, TopicFilter("sports/tennis"))
        for index in range(15):
            system.publish(ids[20], topic="sports/football")
            system.publish(ids[21], topic="sports/tennis")
            simulator.run(until=simulator.now + 0.4)
        simulator.run(until=simulator.now + 10)
        delegate_ids = {node for nodes in system.delegates().values() for node in nodes}
        assert delegate_ids
        # At least one delegate forwarded traffic on a topic it never delivered
        # (broker-like behaviour, the paper's §4.2 observation).
        unfair_delegates = [
            node_id
            for node_id in delegate_ids
            if system.ledger.account(node_id).gossip_messages_sent > 0
            and system.ledger.account(node_id).events_delivered
            < system.ledger.account(node_id).events_forwarded
        ]
        assert unfair_delegates

    def test_ordinary_members_are_fair(self):
        system, simulator, ids = self.build(count=30, seed=44)
        for index, node_id in enumerate(ids):
            topic = ["sports/football", "sports/tennis", "tech/ai"][index % 3]
            system.subscribe(node_id, TopicFilter(topic))
        for index in range(30):
            topic = ["sports/football", "sports/tennis", "tech/ai"][index % 3]
            system.publish(ids[(index * 7) % 30], topic=topic)
            simulator.run(until=simulator.now + 0.3)
        simulator.run(until=simulator.now + 10)
        report = evaluate_fairness(
            EXPRESSIVE_POLICY.contributions(system.ledger),
            EXPRESSIVE_POLICY.benefits(system.ledger),
        )
        assert report.ratio_jain > 0.6

    def test_content_filter_rejected(self):
        system, _, ids = self.build(count=4, seed=45)
        with pytest.raises(TypeError):
            system.subscribe(ids[0], equality_filter(level=1))

    def test_invalid_construction(self):
        simulator = Simulator(seed=1)
        network = Network(simulator)
        with pytest.raises(ValueError):
            DataAwareMulticastSystem(simulator, network, [])
        with pytest.raises(ValueError):
            DataAwareMulticastSystem(simulator, network, make_ids(4), delegates_per_root=0)

    DAM_TOPICS = ["sports", "sports/football", "sports/tennis", "tech/ai"]
    DAM_OPS = st.lists(
        st.tuples(
            st.sampled_from(["subscribe", "unsubscribe", "crash", "recover", "publish"]),
            st.integers(0, 11),
            st.sampled_from(DAM_TOPICS),
        ),
        max_size=40,
    )

    @settings(deadline=None, max_examples=60)
    @given(DAM_OPS)
    def test_group_members_is_the_sorted_union(self, ops):
        # The kept member list must equal the union recomputed from the
        # groups and the root's delegates after every kind of change.
        system, simulator, ids = self.build(count=12, seed=46)
        for verb, index, topic in ops:
            node_id = ids[index]
            if verb == "subscribe":
                system.subscribe(node_id, TopicFilter(topic))
            elif verb == "unsubscribe":
                system.unsubscribe(node_id, TopicFilter(topic))
            elif verb == "crash":
                system.nodes[node_id].crash()
            elif verb == "recover":
                system.nodes[node_id].recover()
            else:
                system.publish(node_id, topic=topic)
                simulator.run(until=simulator.now + 0.3)
            for group in self.DAM_TOPICS:
                fresh = set(system._groups.get(group, ()))
                fresh.update(system._delegates.get(topic_path(group)[0], ()))
                assert system.group_members(group) == sorted(fresh)
