"""Tests for the structured baselines: id space, Pastry routing, Scribe, SplitStream, DKS."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EXPRESSIVE_POLICY, evaluate_fairness
from repro.dht import DksSystem, IdSpace, PastryRouter, ScribeSystem, SplitStreamSystem
from repro.pubsub import TopicFilter
from repro.sim import Network, Simulator
from tests.conftest import equality_filter


def make_ids(count):
    return [f"n{index:02d}" for index in range(count)]


def reference_prefix(space, left, right):
    """Shared prefix length by comparing digit by digit."""
    length = 0
    while length < space.digits and space.digit(left, length) == space.digit(right, length):
        length += 1
    return length


class ReferenceRouter:
    """The per-hop scan over every live node that ``PastryRouter`` used to run.

    Kept as the oracle for the per-key summaries: it keeps its own live set,
    excludes ``current`` from the candidates, and recomputes everything on
    every call, so it cannot share a stale cache with the router under test.
    """

    def __init__(self, router):
        self.space = router.space
        self.limit = router.space.digits + router.leaf_set_size + 2
        self.id_of = {name: router._id_of[name] for name in router.alive_nodes()}
        self.alive = set(self.id_of)

    def set_alive(self, name, alive):
        (self.alive.add if alive else self.alive.discard)(name)

    def root_of(self, key):
        if not self.alive:
            raise RuntimeError("no live nodes in the overlay")
        return min(self.alive, key=lambda name: (self.space.distance(self.id_of[name], key), self.id_of[name]))

    def next_hop(self, current, key):
        if current == self.root_of(key):
            return None
        current_prefix = reference_prefix(self.space, self.id_of[current], key)
        current_distance = self.space.distance(self.id_of[current], key)
        longer, closer = [], []
        for name in self.alive - {current}:
            prefix = reference_prefix(self.space, self.id_of[name], key)
            distance = self.space.distance(self.id_of[name], key)
            if prefix > current_prefix:
                longer.append((-prefix, distance, name))
            if distance < current_distance:
                closer.append((distance, name))
        if longer:
            return min(longer)[2]
        return min(closer)[1] if closer else None

    def path(self, start, key):
        path = [start]
        for _ in range(self.limit):
            nxt = self.next_hop(path[-1], key)
            if nxt is None:
                return tuple(path)
            path.append(nxt)
        raise RuntimeError("hop limit exceeded")


def outcome(call, *args):
    """The call's result, or the type of what it raised (so raises compare too)."""
    try:
        return call(*args)
    except RuntimeError as error:
        return type(error)


def assert_router_matches_reference(router, reference, currents, keys):
    for key in keys:
        assert outcome(router.root_of, key) == outcome(reference.root_of, key)
        for current in currents:
            assert outcome(router.next_hop, current, key) == outcome(reference.next_hop, current, key)
            assert outcome(lambda: router.route(current, key).path) == outcome(reference.path, current, key)


class TestIdSpace:
    def test_hash_is_deterministic_and_in_range(self):
        space = IdSpace()
        first = space.hash_name("topic-a")
        assert first == space.hash_name("topic-a")
        assert 0 <= first < space.size

    def test_digit_extraction(self):
        space = IdSpace(bits=8, digit_bits=4)
        identifier = 0xA7
        assert space.digit(identifier, 0) == 0xA
        assert space.digit(identifier, 1) == 0x7
        with pytest.raises(ValueError):
            space.digit(identifier, 2)

    def test_shared_prefix_length(self):
        space = IdSpace(bits=16, digit_bits=4)
        assert space.shared_prefix_length(0xABCD, 0xABFF) == 2
        assert space.shared_prefix_length(0xABCD, 0xABCD) == 4
        assert space.shared_prefix_length(0x1BCD, 0xABCD) == 0

    def test_distance_is_circular(self):
        space = IdSpace(bits=8, digit_bits=4)
        assert space.distance(1, 255) == 2
        assert space.distance(0, 128) == 128

    def test_closest_breaks_ties_deterministically(self):
        space = IdSpace(bits=8, digit_bits=4)
        assert space.closest(10, [5, 15]) == 5
        assert space.closest(10, []) is None

    @pytest.mark.parametrize("digit_bits", [1, 2, 4, 8])
    def test_shared_prefix_length_equals_the_digit_loop_for_all_pairs(self, digit_bits):
        space = IdSpace(bits=8, digit_bits=digit_bits)
        for left in range(space.size):
            for right in range(left, space.size):
                expected = reference_prefix(space, left, right)
                assert space.shared_prefix_length(left, right) == expected
                assert space.shared_prefix_length(right, left) == expected

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            IdSpace(bits=10, digit_bits=4)
        with pytest.raises(ValueError):
            IdSpace(bits=0)


class TestPastryRouter:
    def test_route_reaches_root_with_logarithmic_hops(self):
        router = PastryRouter(make_ids(64))
        key = router.key_for("some-topic")
        result = router.route("n00", key)
        assert result.root == router.root_of(key)
        assert result.path[0] == "n00"
        assert result.path[-1] == result.root
        assert result.hops <= router.space.digits + router.leaf_set_size + 1

    def test_every_start_reaches_the_same_root(self):
        router = PastryRouter(make_ids(40))
        key = router.key_for("topic-x")
        roots = {router.route(start, key).root for start in make_ids(40)}
        assert len(roots) == 1

    def test_route_from_root_has_zero_hops(self):
        router = PastryRouter(make_ids(20))
        key = router.key_for("t")
        root = router.root_of(key)
        assert router.route(root, key).hops == 0
        assert router.next_hop(root, key) is None

    def test_dead_nodes_are_routed_around(self):
        router = PastryRouter(make_ids(30))
        key = router.key_for("t")
        original_root = router.root_of(key)
        router.set_alive(original_root, False)
        new_root = router.root_of(key)
        assert new_root != original_root
        result = router.route("n00" if "n00" != original_root else "n01", key)
        assert original_root not in result.path

    def test_distinct_identifiers_even_with_collisions(self):
        router = PastryRouter(make_ids(100))
        identifiers = [router._id_of[name] for name in make_ids(100)]
        assert len(set(identifiers)) == 100

    #: 256 identifiers with 4-ary digits: up to 60 hashed names collide (and
    #: get probed apart) and keys sit at equal distance from two nodes.
    TIGHT_SPACE = IdSpace(bits=8, digit_bits=2)

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(min_value=1, max_value=60),
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(min_value=0), st.booleans()), max_size=12),
        st.lists(st.integers(min_value=0), min_size=1, max_size=4),
    )
    def test_matches_the_reference_scan_across_liveness_changes(self, count, keys, flips, picks):
        names = make_ids(count)
        router = PastryRouter(names, id_space=self.TIGHT_SPACE)
        reference = ReferenceRouter(router)
        currents = [names[pick % count] for pick in picks]
        assert_router_matches_reference(router, reference, currents, keys)
        for pick, alive in flips:
            # The same keys are asked before and after every flip, and the
            # flipped node is one of the currents (a dead current included).
            flipped = names[pick % count]
            router.set_alive(flipped, alive)
            reference.set_alive(flipped, alive)
            assert_router_matches_reference(router, reference, currents + [flipped], keys)

    def test_matches_the_reference_scan_down_to_an_empty_overlay_and_back(self):
        names = make_ids(24)
        router = PastryRouter(names, id_space=self.TIGHT_SPACE)
        reference = ReferenceRouter(router)
        keys = [0, 77, 128, 255]
        for alive in (False, True):
            for name in names:
                router.set_alive(name, alive)
                reference.set_alive(name, alive)
                assert_router_matches_reference(router, reference, names, keys)
        for name in names:
            router.set_alive(name, False)
        with pytest.raises(RuntimeError, match="no live nodes in the overlay"):
            router.root_of(0)
        with pytest.raises(RuntimeError, match="no live nodes in the overlay"):
            router.next_hop(names[0], 0)

    def test_unknown_node_rejected(self):
        router = PastryRouter(make_ids(5))
        with pytest.raises(KeyError):
            router.set_alive("stranger", True)
        with pytest.raises(ValueError):
            PastryRouter([])


def run_topic_workload(system, simulator, node_ids, topics=("a", "b", "c", "d"), publications=24):
    for index, node_id in enumerate(node_ids):
        system.subscribe(node_id, TopicFilter(topics[index % len(topics)]))
    events = []
    for index in range(publications):
        events.append(system.publish(node_ids[index % len(node_ids)], topic=topics[index % len(topics)]))
        simulator.run(until=simulator.now + 0.2)
    simulator.run(until=simulator.now + 20.0)
    return events


class TestScribeSystem:
    def build(self, count=32, seed=5):
        simulator = Simulator(seed=seed)
        network = Network(simulator)
        ids = make_ids(count)
        return ScribeSystem(simulator, network, ids), simulator, ids

    def test_all_subscribers_deliver(self):
        system, simulator, ids = self.build()
        run_topic_workload(system, simulator, ids)
        # Every subscriber of a topic delivers every event on it: 24 events,
        # 32 // 4 subscribers per topic.
        assert system.delivery_log.total_deliveries() == 24 * (32 // 4)

    def test_non_subscribers_do_not_deliver(self):
        system, simulator, ids = self.build(count=16, seed=6)
        system.subscribe(ids[0], TopicFilter("only"))
        system.publish(ids[5], topic="only")
        simulator.run(until=simulator.now + 10)
        assert sorted({record.node_id for record in system.delivery_log.ordered_records()}) == [ids[0]]

    def test_interior_nodes_forward_without_interest(self):
        system, simulator, ids = self.build(count=48, seed=7)
        topic = "hot"
        for node_id in ids[:24]:
            system.subscribe(node_id, TopicFilter(topic))
        for index in range(10):
            system.publish(ids[30], topic=topic)
            simulator.run(until=simulator.now + 0.5)
        simulator.run(until=simulator.now + 10)
        forwarders = [
            node_id
            for node_id, node in system.nodes.items()
            if topic in node.forwarder_topics and topic not in node.subscribed_topics
        ]
        # With rendezvous routing there is almost always at least one node on
        # a join path that never subscribed -- the paper's unfairness witness.
        interior_work = sum(
            system.ledger.account(node_id).gossip_messages_sent for node_id in forwarders
        )
        assert forwarders
        assert interior_work >= 0

    def test_rendezvous_concentrates_contribution(self):
        system, simulator, ids = self.build(count=32, seed=8)
        run_topic_workload(system, simulator, ids)
        report = evaluate_fairness(
            EXPRESSIVE_POLICY.contributions(system.ledger),
            EXPRESSIVE_POLICY.benefits(system.ledger),
        )
        assert report.contribution_jain < 0.6  # load concentrates at roots

    def test_content_filter_rejected(self):
        system, _, ids = self.build(count=4, seed=9)
        with pytest.raises(TypeError):
            system.subscribe(ids[0], equality_filter(level=1))

    def test_publish_requires_topic(self):
        system, _, ids = self.build(count=4, seed=10)
        with pytest.raises(ValueError):
            system.publish(ids[0], payload="x")

    def test_unsubscribe_prunes_tree(self):
        system, simulator, ids = self.build(count=16, seed=11)
        system.subscribe(ids[3], TopicFilter("t"))
        simulator.run(until=simulator.now + 5)
        system.unsubscribe(ids[3], TopicFilter("t"))
        simulator.run(until=simulator.now + 5)
        system.publish(ids[0], topic="t")
        simulator.run(until=simulator.now + 5)
        assert system.delivery_log.delivery_count(ids[3]) == 0

    def test_rendezvous_lookup(self):
        system, _, ids = self.build(count=16, seed=12)
        rendezvous = system.router.root_of(system.router.key_for("some-topic"))
        assert rendezvous in ids


class TestSplitStreamSystem:
    def build(self, count=32, stripes=4, seed=13):
        simulator = Simulator(seed=seed)
        network = Network(simulator)
        ids = make_ids(count)
        return SplitStreamSystem(simulator, network, ids, stripes=stripes), simulator, ids

    def test_delivery_equivalent_to_scribe(self):
        system, simulator, ids = self.build()
        run_topic_workload(system, simulator, ids)
        assert system.delivery_log.total_deliveries() == 24 * (32 // 4)

    def test_striping_spreads_load_more_evenly_than_scribe(self):
        scribe_system, scribe_sim, ids = TestScribeSystem().build(count=40, seed=14)
        run_topic_workload(scribe_system, scribe_sim, ids, topics=("hot",), publications=40)
        split_system, split_sim, ids2 = self.build(count=40, stripes=8, seed=14)
        run_topic_workload(split_system, split_sim, ids2, topics=("hot",), publications=40)

        def contribution_jain(system):
            return evaluate_fairness(
                EXPRESSIVE_POLICY.contributions(system.ledger),
                EXPRESSIVE_POLICY.benefits(system.ledger),
            ).contribution_jain

        assert contribution_jain(split_system) > contribution_jain(scribe_system)

    def test_stripe_topics_and_counter(self):
        system, _, _ = self.build(count=8, stripes=3, seed=15)
        assert system.stripe_topics("t") == ["t#0", "t#1", "t#2"]
        picks = {system._next_stripe("t") for _ in range(6)}
        assert picks == {"t#0", "t#1", "t#2"}

    def test_invalid_stripes(self):
        simulator = Simulator(seed=1)
        network = Network(simulator)
        with pytest.raises(ValueError):
            SplitStreamSystem(simulator, network, make_ids(4), stripes=0)


class TestDksSystem:
    def build(self, count=32, seed=16):
        simulator = Simulator(seed=seed)
        network = Network(simulator)
        ids = make_ids(count)
        return DksSystem(simulator, network, ids), simulator, ids

    def test_all_subscribers_deliver(self):
        system, simulator, ids = self.build()
        run_topic_workload(system, simulator, ids)
        assert system.delivery_log.total_deliveries() == 24 * (32 // 4)

    def test_only_group_members_receive_group_sends(self):
        system, simulator, ids = self.build(count=16, seed=17)
        system.subscribe(ids[1], TopicFilter("t"))
        system.publish(ids[0], topic="t")
        simulator.run(until=simulator.now + 10)
        assert sorted({record.node_id for record in system.delivery_log.ordered_records()}) == [ids[1]]

    def test_coordinator_carries_dispatch_load(self):
        system, simulator, ids = self.build(count=32, seed=18)
        topic = "hot"
        for node_id in ids[:16]:
            system.subscribe(node_id, TopicFilter(topic))
        for index in range(20):
            system.publish(ids[20], topic=topic)
            simulator.run(until=simulator.now + 0.3)
        simulator.run(until=simulator.now + 10)
        coordinator = system.router.root_of(system.router.key_for(topic))
        coordinator_sends = system.ledger.account(coordinator).gossip_messages_sent
        average_sends = sum(
            system.ledger.account(node_id).gossip_messages_sent for node_id in ids
        ) / len(ids)
        assert coordinator_sends > 3 * average_sends

    def test_index_forwarders_charged_subscription_work(self):
        system, simulator, ids = self.build(count=32, seed=19)
        for node_id in ids:
            system.subscribe(node_id, TopicFilter("popular"))
        simulator.run(until=simulator.now + 10)
        forwards = sum(system.ledger.account(node_id).subscription_forwards for node_id in ids)
        assert forwards > 0

    def test_unsubscribe_removes_from_group(self):
        system, simulator, ids = self.build(count=16, seed=20)
        system.subscribe(ids[2], TopicFilter("t"))
        simulator.run(until=simulator.now + 5)
        system.unsubscribe(ids[2], TopicFilter("t"))
        simulator.run(until=simulator.now + 5)
        system.publish(ids[0], topic="t")
        simulator.run(until=simulator.now + 5)
        assert system.delivery_log.delivery_count(ids[2]) == 0

    def test_content_filter_rejected(self):
        system, _, ids = self.build(count=4, seed=21)
        with pytest.raises(TypeError):
            system.subscribe(ids[0], equality_filter(level=1))
