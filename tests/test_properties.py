"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    WorkLedger,
    contribution_benefit_ratios,
    gini_coefficient,
    jain_index,
    smoothed_ratios,
    wasted_contribution_share,
)
from repro.dht import IdSpace, PastryRouter
from repro.gossip import EventBuffer
from repro.membership import PartialView
from repro.pubsub import (
    AttributeCondition,
    ContentFilter,
    Event,
    InterestFunction,
    TopicFilter,
    TopicHierarchy,
    topic_path,
)
from repro.registry import SYSTEMS
from repro.telemetry import percentile
from repro.sim.rng import zipf_weights

# Bounded non-negative floats for metric inputs.
values_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)

node_values_strategy = st.dictionaries(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    st.floats(min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=20,
)


class TestFairnessIndexProperties:
    @given(values_strategy)
    def test_jain_index_bounds(self, values):
        index = jain_index(values)
        assert 0.0 <= index <= 1.0 + 1e-9

    def test_jain_index_survives_underflowing_squares(self):
        # Found by test_jain_index_bounds: 6.4e-161 squared is subnormal.
        assert jain_index([6.361920056959414e-161] * 2) == 1.0
        assert jain_index([5e-324, 0.0]) == 0.5

    @given(st.floats(min_value=0.01, max_value=1e5), st.integers(min_value=1, max_value=30))
    def test_jain_index_is_one_for_equal_values(self, value, count):
        assert abs(jain_index([value] * count) - 1.0) < 1e-9

    @given(values_strategy)
    def test_gini_bounds(self, values):
        coefficient = gini_coefficient(values)
        assert -1e-9 <= coefficient <= 1.0

    @given(values_strategy, st.floats(min_value=1.001, max_value=10.0))
    def test_jain_index_scale_invariant(self, values, scale):
        original = jain_index(values)
        scaled = jain_index([value * scale for value in values])
        assert abs(original - scaled) < 1e-6

    @given(node_values_strategy, node_values_strategy)
    def test_ratios_nonnegative_and_cover_all_nodes(self, contributions, benefits):
        ratios = contribution_benefit_ratios(contributions, benefits)
        assert set(ratios) == set(contributions) | set(benefits)
        assert all(value >= 0 for value in ratios.values())
        smoothed = smoothed_ratios(contributions, benefits)
        assert all(value >= 0 for value in smoothed.values())

    @given(node_values_strategy, node_values_strategy)
    def test_wasted_share_is_a_fraction(self, contributions, benefits):
        share = wasted_contribution_share(contributions, benefits)
        assert 0.0 <= share <= 1.0

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=50),
           st.floats(min_value=0.0, max_value=1.0))
    def test_percentile_within_sample_range(self, values, quantile):
        ordered = sorted(values)
        result = percentile(ordered, quantile)
        assert ordered[0] - 1e-9 <= result <= ordered[-1] + 1e-9

    @given(st.integers(min_value=1, max_value=200), st.floats(min_value=0.0, max_value=3.0))
    def test_zipf_weights_sum_to_one(self, count, exponent):
        weights = zipf_weights(count, exponent)
        assert abs(sum(weights) - 1.0) < 1e-9
        assert all(weight > 0 for weight in weights)


class TestLedgerProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["publish", "gossip", "deliver", "subscribe", "unsubscribe"]),
                st.sampled_from(["a", "b", "c"]),
            ),
            max_size=100,
        )
    )
    def test_counters_never_negative_and_totals_match(self, operations):
        ledger = WorkLedger()
        for operation, node in operations:
            if operation == "publish":
                ledger.record_publish(node)
            elif operation == "gossip":
                ledger.record_gossip_send(node, messages=1, events=2, size=2)
            elif operation == "deliver":
                ledger.record_delivery(node)
            elif operation == "subscribe":
                ledger.record_subscribe(node)
            else:
                ledger.record_unsubscribe(node)
        totals = ledger.totals()
        for node in ledger.node_ids():
            account = ledger.account(node)
            assert account.filters_placed >= 0
            assert account.events_delivered >= 0
        assert totals.events_published == sum(
            ledger.account(node).events_published for node in ledger.node_ids()
        )


class TestPartialViewProperties:
    @given(
        st.lists(
            st.tuples(st.text(alphabet="nodexyz0123456789", min_size=1, max_size=6),
                      st.integers(min_value=0, max_value=50)),
            max_size=60,
        ),
        st.integers(min_value=1, max_value=12),
    )
    def test_capacity_and_owner_exclusion_invariants(self, descriptors, capacity):
        view = PartialView("owner", capacity=capacity)
        for name, age in descriptors:
            view.add((name, age))
        assert len(view) <= capacity
        assert "owner" not in view
        assert len(set(view.node_ids())) == len(view.node_ids())

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=20))
    def test_sample_never_exceeds_request_or_content(self, capacity, count):
        view = PartialView("owner", capacity=capacity)
        for index in range(capacity):
            view.add((f"n{index}", 0))
        sample = view.sample(random.Random(0), count)
        assert len(sample) <= min(count, len(view))
        assert len(set(sample)) == len(sample)


class _ReagingView:
    """Reference partial view: ``id -> age`` in a dict, really rebuilt on ``age_all``.

    Every query sorts, scans or samples the dict afresh, and ``merge`` is
    CYCLON's merge written with the view's public calls: for a new entry
    into a full view, trade away the first offered entry still present,
    then ``add``.
    """

    def __init__(self, owner_id, capacity):
        self.owner_id, self.capacity, self.entries = owner_id, capacity, {}

    def oldest_id(self):
        if not self.entries:
            return None
        return max(self.entries, key=lambda node_id: (self.entries[node_id], node_id))

    def add(self, descriptor):
        node_id, age = descriptor
        if node_id == self.owner_id:
            return False
        existing = node_id if node_id in self.entries else None
        if existing is None and len(self.entries) >= self.capacity:
            existing = self.oldest_id()
        if existing is not None and age >= self.entries[existing]:
            return False
        if existing is not None:
            del self.entries[existing]
        self.entries[node_id] = age
        return True

    def remove(self, node_id):
        return self.entries.pop(node_id, None) is not None

    def merge(self, received, offered):
        for descriptor in received:
            if descriptor[0] == self.owner_id:
                continue
            if descriptor[0] not in self.entries and len(self.entries) >= self.capacity:
                for candidate, _ in offered:
                    if self.remove(candidate):
                        break
            self.add(descriptor)

    def age_all(self, increment):
        self.entries = {node_id: age + increment for node_id, age in self.entries.items()}

    def node_ids(self):
        return sorted(self.entries)

    def descriptors(self):
        return [(node_id, self.entries[node_id]) for node_id in sorted(self.entries)]

    def sample(self, rng, count, exclude):
        candidates = [
            node_id for node_id in sorted(self.entries) if node_id != self.owner_id and node_id not in exclude
        ]
        return candidates if count >= len(candidates) else rng.sample(candidates, count)

    def sample_descriptors(self, rng, count):
        descriptors = self.descriptors()
        return descriptors if count >= len(descriptors) else rng.sample(descriptors, count)


_VIEW_IDS = [f"n{index}" for index in range(8)]
_view_descriptors = st.tuples(st.sampled_from(["owner"] + _VIEW_IDS), st.integers(min_value=0, max_value=6))
_view_operations = st.one_of(
    st.tuples(st.just("add"), _view_descriptors),
    st.tuples(st.just("age_all"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("remove"), st.sampled_from(_VIEW_IDS)),
    st.tuples(
        st.just("merge"),
        st.tuples(st.lists(_view_descriptors, max_size=6), st.lists(_view_descriptors, max_size=5)),
    ),
)


class TestEpochAgeingAgainstReagingModel:
    @given(
        st.integers(min_value=1, max_value=5),
        st.lists(_view_operations, max_size=40),
        st.integers(min_value=0, max_value=6),
        st.lists(st.sampled_from(_VIEW_IDS), max_size=3),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_view_agrees_with_model_after_every_step(self, capacity, operations, count, exclude, seed):
        view = PartialView("owner", capacity=capacity)
        model = _ReagingView("owner", capacity)
        view_rng, model_rng = random.Random(seed), random.Random(seed)
        for name, argument in operations:
            if name == "add":
                assert view.add(argument) == model.add(argument)
            elif name == "remove":
                assert view.remove(argument) == model.remove(argument)
            elif name == "merge":
                view.merge(*argument)
                model.merge(*argument)
            else:
                view.age_all(argument)
                model.age_all(argument)
            assert view.node_ids() == model.node_ids()
            # A sample of the whole view draws nothing and lists it in id order.
            assert view.sample_descriptors(random.Random(0), len(view)) == model.descriptors()
            assert view.oldest_id() == model.oldest_id()
            assert len(view) == len(model.entries)
            assert view.sample(view_rng, count, exclude) == model.sample(model_rng, count, set(exclude))
            assert view.sample_descriptors(view_rng, count) == model.sample_descriptors(model_rng, count)
        assert view_rng.getstate() == model_rng.getstate()


class TestBufferProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=500), max_size=120),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=10),
    )
    def test_buffer_never_exceeds_capacity_and_never_duplicates(self, ids, capacity, select_count):
        buffer = EventBuffer(capacity=capacity, max_rounds=5)
        for identifier in ids:
            event = Event(event_id=f"e{identifier}", publisher="p", attributes={})
            buffer.add(event)
        assert len(buffer) <= capacity
        selection = buffer.select(select_count, random.Random(1))
        assert len(selection) <= select_count
        assert len({event.event_id for event in selection}) == len(selection)


class TestFilterProperties:
    @given(
        st.dictionaries(
            st.sampled_from(["topic", "level", "category"]),
            st.one_of(st.integers(min_value=-10, max_value=10), st.sampled_from(["a", "b", "c"])),
            max_size=3,
        )
    )
    def test_topic_filter_matches_iff_topic_equal(self, attributes):
        event = Event(event_id="e", publisher="p", attributes=attributes)
        filter_ = TopicFilter("a")
        assert filter_.matches(event) == (attributes.get("topic") == "a")

    @given(st.integers(min_value=-20, max_value=20), st.integers(min_value=-20, max_value=20))
    def test_content_filter_conjunction_semantics(self, level, threshold):
        event = Event(event_id="e", publisher="p", attributes={"level": level, "category": "x"})
        filter_ = ContentFilter(
            conditions=(
                AttributeCondition("category", "==", "x"),
                AttributeCondition("level", ">=", threshold),
            )
        )
        assert filter_.matches(event) == (level >= threshold)

    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=0, max_size=6))
    def test_interest_function_is_union_of_filters(self, topics):
        interest = InterestFunction([TopicFilter(topic) for topic in topics])
        probe = Event(event_id="e", publisher="p", attributes={"topic": "a"})
        assert interest.is_interested(probe) == ("a" in topics)
        assert len(interest) == len(set(topics))


class TestTopicHierarchyProperties:
    @given(
        st.lists(
            st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4).map("/".join),
            min_size=1,
            max_size=15,
        )
    )
    def test_ancestors_always_present(self, names):
        hierarchy = TopicHierarchy(names)
        for topic in hierarchy:
            for prefix in topic_path(topic.name):
                assert prefix in hierarchy
        # Every name's full prefix chain is contained.
        for name in names:
            for prefix in topic_path(name):
                assert prefix in hierarchy


class TestPastryProperties:
    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=2, max_value=60), st.text(min_size=1, max_size=10))
    def test_routing_always_terminates_at_unique_root(self, node_count, key_name):
        node_ids = [f"n{index}" for index in range(node_count)]
        router = PastryRouter(node_ids)
        key = router.key_for(key_name)
        root = router.root_of(key)
        for start in node_ids[: min(10, node_count)]:
            result = router.route(start, key)
            assert result.root == root
            assert result.path[-1] == root
            assert len(result.path) == len(set(result.path))  # no loops

    @given(st.text(min_size=1, max_size=12), st.text(min_size=1, max_size=12))
    def test_shared_prefix_symmetry(self, left_name, right_name):
        space = IdSpace()
        left = space.hash_name(left_name)
        right = space.hash_name(right_name)
        assert space.shared_prefix_length(left, right) == space.shared_prefix_length(right, left)
        assert space.distance(left, right) == space.distance(right, left)


class TestLazyBroadcastProperties:
    """Hypothesis sweeps over the lazy-push parameter space (fanout/ALPHA/loss).

    The delivery-ratio-vs-push comparison lives in ``test_lazy_broadcast``
    on pinned seeds; these sweeps check the *structural* invariants that
    must hold for every parameter combination: store-set size and
    determinism, the infection estimator's bounds, and — on tiny end-to-end
    simulations — store occupancy, at-most-once delivery, and recovery
    counter consistency.
    """

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    )
    def test_store_set_size_and_determinism(self, node_count, alpha):
        from math import ceil

        from repro.gossip import lazy_store_ids

        node_ids = [f"node-{index:03d}" for index in range(node_count)]
        selected = lazy_store_ids(node_ids, alpha)
        assert selected == lazy_store_ids(reversed(node_ids), alpha)
        assert selected <= frozenset(node_ids)
        assert len(selected) == max(1, ceil(alpha * node_count))

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(min_value=2, max_value=5000),
        st.integers(min_value=1, max_value=12),
    )
    def test_eager_budget_is_bounded_and_monotone_in_fanout(self, population, fanout):
        from math import ceil, log

        from repro.gossip import eager_push_rounds

        rounds = eager_push_rounds(population, fanout)
        # Never fewer than two rounds, never more than the fanout-2 doubling
        # time of the whole population (the loosest sensible upper bound).
        assert 2 <= rounds <= ceil(log(max(2, population)) / log(2)) + 2
        assert eager_push_rounds(population, fanout + 1) <= rounds

    @settings(deadline=None, max_examples=8)
    @given(
        st.integers(min_value=1, max_value=4),
        st.sampled_from([0.125, 0.25, 0.5, 1.0]),
        st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_tiny_run_invariants_across_the_parameter_space(
        self, fanout, alpha, loss, seed
    ):
        from math import ceil

        from repro.experiments import ExperimentConfig, run_experiment

        config = ExperimentConfig(
            name="lazy-prop-sweep",
            system="lazy-push",
            nodes=8,
            topics=3,
            interest_model="zipf",
            max_topics_per_node=2,
            publication_rate=2.0,
            duration=3.0,
            drain_time=4.0,
            fanout=fanout,
            gossip_size=4,
            seed=seed,
            loss_rate=loss,
            alpha=alpha,
        )
        result = run_experiment(config, keep_system=True)
        assert 0.0 <= result.reliability.delivery_ratio <= 1.0
        nodes = list(result.system.nodes.values())
        assert sum(node.is_store for node in nodes) == max(1, ceil(alpha * len(nodes)))
        for node in nodes:
            assert len(node.store) <= node.store_capacity
            if not node.is_store:
                assert not node.store
            records = [
                record
                for record in node.delivery_log.ordered_records()
                if record.node_id == node.node_id
            ]
            assert len(records) == len({record.event_id for record in records})
        # Every served pull answers an issued one, and pulls only exist
        # where digests circulate.
        issued = sum(node.pulls_issued for node in nodes)
        served = sum(node.pulls_served for node in nodes)
        assert served <= issued
        if issued == 0:
            assert sum(node.recoveries for node in nodes) == 0


class TestEverySystemInvariants:
    """What must hold for any registered system, lossy or not."""

    @pytest.mark.parametrize("kind", sorted(SYSTEMS.names()))
    @settings(deadline=None, max_examples=4)
    @given(
        st.sampled_from([0.0, 0.2]),
        st.integers(min_value=6, max_value=10),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_deliveries_are_wanted_unique_counted_and_messages_conserved(
        self, kind, loss, nodes, seed
    ):
        from repro.experiments import ExperimentConfig, run_experiment

        config = ExperimentConfig(
            name="every-system-invariants",
            system=kind,
            nodes=nodes,
            topics=4,
            interest_model="uniform",
            topics_per_node=2,
            publication_rate=2.0,
            duration=3.0,
            drain_time=4.0,
            gossip_size=4,
            seed=seed,
            loss_rate=loss,
        )
        result = run_experiment(config, keep_system=True)
        system = result.system
        events = {event.event_id: event for event in result.published_events}
        records = system.delivery_log.ordered_records()
        for record in records:
            # No delivery without a filter of that node matching the event.
            wanted_by = system.subscriptions.interested_nodes(events[record.event_id])
            assert record.node_id in wanted_by
        pairs = [(record.node_id, record.event_id) for record in records]
        assert len(pairs) == len(set(pairs))
        assert system.ledger.totals().events_delivered == len(records)
        # Stop every process and let what is in flight land: each message
        # ever sent was then delivered or dropped for exactly one reason.
        for process in system.registry.all():
            process.crash()
        system.simulator.run(until=system.simulator.now + 100.0)
        stats = system.network.stats
        assert stats.sent == (
            stats.delivered + stats.lost + stats.dropped_dead + stats.dropped_partition
        )
