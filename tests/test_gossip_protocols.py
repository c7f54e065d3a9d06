"""Tests for the push gossip protocol (Figure 4), the push-pull variant, and the system wrapper."""

from __future__ import annotations

import pytest

from tests.conftest import build_gossip_system, equality_filter, subscribed
from repro.gossip import GossipSystem, PushGossipNode, PushPullGossipNode
from repro.membership import full_membership_provider
from repro.pubsub import TopicFilter
from repro.sim import Network, Simulator


def subscribe_everyone(system, topic="news"):
    for node_id in system.node_ids():
        system.subscribe(node_id, TopicFilter(topic))


class TestPushGossipDissemination:
    def test_event_reaches_all_interested_nodes(self):
        system = build_gossip_system(nodes=30, seed=1)
        subscribe_everyone(system)
        system.publish("node-0", topic="news")
        system.run(until=15.0)
        assert system.delivery_log.total_deliveries() == 30

    def test_only_interested_nodes_deliver(self):
        system = build_gossip_system(nodes=20, seed=2)
        for index in range(20):
            topic = "news" if index % 2 == 0 else "sports"
            system.subscribe(f"node-{index}", TopicFilter(topic))
        system.publish("node-0", topic="news")
        system.run(until=15.0)
        records = system.delivery_log.ordered_records()
        delivered_nodes = {
            record.node_id for record in records if record.event_id == records[0].event_id
        }
        assert delivered_nodes == {f"node-{index}" for index in range(0, 20, 2)}

    def test_uninterested_nodes_still_forward(self):
        system = build_gossip_system(nodes=20, seed=3)
        # Only one subscriber; everyone else has no interest at all.
        system.subscribe("node-1", TopicFilter("news"))
        for _ in range(5):
            system.publish("node-0", topic="news")
        system.run(until=15.0)
        uninterested_work = sum(
            system.ledger.account(f"node-{index}").gossip_messages_sent for index in range(2, 20)
        )
        assert uninterested_work > 0  # the classic-gossip unfairness

    def test_duplicate_events_delivered_once(self):
        system = build_gossip_system(nodes=15, seed=4, fanout=4)
        subscribe_everyone(system)
        event = system.publish("node-0", topic="news")
        system.run(until=20.0)
        for node_id in system.node_ids():
            deliveries = [
                record
                for record in system.delivery_log.ordered_records()
                if record.node_id == node_id and record.event_id == event.event_id
            ]
            assert len(deliveries) <= 1

    def test_zero_fanout_node_sends_nothing(self, simulator, network, ledger, delivery_log):
        node = PushGossipNode(
            "solo",
            simulator,
            network,
            membership_provider=full_membership_provider(network),
            ledger=ledger,
            delivery_log=delivery_log,
            fanout=0,
        )
        node.start()
        node.subscribe(TopicFilter("t"))
        node.publish(
            __import__("repro.pubsub", fromlist=["Event"]).Event(
                event_id="e", publisher="solo", attributes={"topic": "t"}
            )
        )
        simulator.run(until=5.0)
        assert ledger.account("solo").gossip_messages_sent == 0
        assert ledger.account("solo").events_delivered == 1

    def test_reliability_with_message_loss(self):
        system = build_gossip_system(nodes=40, seed=5, fanout=4, loss_rate=0.1)
        subscribe_everyone(system)
        for index in range(5):
            system.publish(f"node-{index}", topic="news")
        system.run(until=30.0)
        assert system.delivery_log.total_deliveries() >= 0.95 * 40 * 5

    def test_dissemination_with_full_membership(self):
        system = build_gossip_system(nodes=25, seed=6, membership="full")
        subscribe_everyone(system)
        system.publish("node-0", topic="news")
        system.run(until=12.0)
        assert system.delivery_log.total_deliveries() == 25

    def test_dissemination_with_lpbcast_membership(self):
        system = build_gossip_system(nodes=25, seed=7, membership="lpbcast")
        subscribe_everyone(system)
        system.publish("node-0", topic="news")
        system.run(until=20.0)
        assert system.delivery_log.total_deliveries() >= 23

    def test_accounting_counts_messages_and_deliveries(self):
        system = build_gossip_system(nodes=10, seed=8)
        subscribe_everyone(system)
        system.publish("node-0", topic="news")
        system.run(until=10.0)
        totals = system.ledger.totals()
        assert totals.events_published == 1
        assert totals.events_delivered == 10
        assert totals.gossip_messages_sent > 0
        assert totals.infrastructure_messages > 0  # CYCLON shuffles

    def test_crashed_node_does_not_deliver(self):
        system = build_gossip_system(nodes=15, seed=9)
        subscribe_everyone(system)
        system.node("node-5").crash()
        event = system.publish("node-0", topic="news")
        system.run(until=15.0)
        delivered = {
            (record.node_id, record.event_id)
            for record in system.delivery_log.ordered_records()
        }
        assert ("node-5", event.event_id) not in delivered
        assert system.delivery_log.total_deliveries() == 14

    def test_content_filter_subscription(self):
        system = build_gossip_system(nodes=12, seed=10)
        for index in range(12):
            system.subscribe(f"node-{index}", equality_filter(category="metals"))
        system.publish("node-0", category="metals", level=3)
        system.publish("node-0", category="energy", level=3)
        system.run(until=15.0)
        assert system.delivery_log.total_deliveries() == 12


class TestGossipSystemApi:
    def test_unsubscribe_stops_future_deliveries(self):
        system = build_gossip_system(nodes=10, seed=11)
        subscribe_everyone(system)
        system.unsubscribe("node-3", TopicFilter("news"))
        event = system.publish("node-0", topic="news")
        system.run(until=12.0)
        assert system.delivery_log.delivery_count("node-3") == 0
        assert "node-3" not in system.interested_nodes(event)

    def test_publish_prebuilt_event_is_stamped(self):
        system = build_gossip_system(nodes=5, seed=12)
        from repro.pubsub import Event

        event = Event(event_id="custom", publisher="node-0", attributes={"topic": "t"})
        system.run(until=3.0)
        published = system.publish("node-0", event=event)
        assert published.published_at == system.simulator.now

    def test_interested_nodes_oracle(self):
        system = build_gossip_system(nodes=6, seed=14)
        system.subscribe("node-1", TopicFilter("a"))
        system.subscribe("node-2", TopicFilter("b"))
        event = system.publish("node-0", topic="a")
        assert system.interested_nodes(event) == ["node-1"]
        assert subscribed(system.subscriptions, "node-2", "b")

    def test_subscribe_records_filter_count(self):
        system = build_gossip_system(nodes=4, seed=15)
        system.subscribe("node-0", TopicFilter("a"))
        system.subscribe("node-0", TopicFilter("b"))
        system.subscribe("node-0", TopicFilter("a"))  # duplicate
        assert system.ledger.account("node-0").filters_placed == 2

    def test_empty_system_rejected(self, simulator, network):
        with pytest.raises(ValueError):
            GossipSystem(simulator, network, [])

    def test_misspelt_selection_strategy_is_rejected_when_the_node_is_built(self, simulator, network):
        # Not later: ``select`` only meets the name in the first round that has
        # something to select, inside a timer callback of the engine.
        with pytest.raises(ValueError, match="unknown selection strategy 'newst'.*did you mean 'newest'"):
            GossipSystem(
                simulator, network, ["a", "b"],
                membership_provider=full_membership_provider(network),
                node_kwargs={"selection_strategy": "newst"},
            )

    def test_delivery_callback_invoked(self):
        system = build_gossip_system(nodes=8, seed=16)
        received = []
        system.subscribe(
            "node-2", TopicFilter("news"), callbacks=[lambda node, event: received.append(event)]
        )
        system.publish("node-0", topic="news")
        system.run(until=10.0)
        assert len(received) == 1


class TestPushPullGossip:
    def build(self, nodes=20, seed=20):
        simulator = Simulator(seed=seed)
        network = Network(simulator)
        ids = [f"node-{index}" for index in range(nodes)]
        return GossipSystem(
            simulator,
            network,
            ids,
            node_class=PushPullGossipNode,
            node_kwargs={"fanout": 3, "gossip_size": 8, "round_period": 1.0},
        )

    def test_dissemination_completes(self):
        system = self.build()
        subscribe_everyone(system)
        system.publish("node-0", topic="news")
        system.run(until=25.0)
        assert system.delivery_log.total_deliveries() == 20

    def test_pull_requests_are_exchanged(self):
        system = self.build(nodes=15, seed=21)
        subscribe_everyone(system)
        for index in range(3):
            system.publish(f"node-{index}", topic="news")
        system.run(until=20.0)
        served = sum(system.node(node_id).pull_requests_served for node_id in system.node_ids())
        sent = sum(system.node(node_id).pull_requests_sent for node_id in system.node_ids())
        assert served > 0 and sent > 0

    def test_digest_traffic_is_smaller_than_push_payloads(self):
        pushpull = self.build(nodes=20, seed=22)
        subscribe_everyone(pushpull)
        for index in range(10):
            pushpull.publish("node-0", topic="news", size=10)
        pushpull.run(until=25.0)

        push = build_gossip_system(nodes=20, seed=22)
        subscribe_everyone(push)
        for index in range(10):
            push.publish("node-0", topic="news", size=10)
        push.run(until=25.0)

        # Both deliver everything, but push forwards far more event copies.
        assert pushpull.delivery_log.total_deliveries() >= 0.9 * 200
        assert push.ledger.totals().events_forwarded > pushpull.ledger.totals().events_forwarded
