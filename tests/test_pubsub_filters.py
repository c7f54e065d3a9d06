"""Tests for filters and the interest function (the paper's I(p, e))."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pubsub import (
    AttributeCondition,
    ContentFilter,
    Event,
    InterestFunction,
    TopicFilter,
    filter_from_dict,
)
from tests.conftest import equality_filter


def make_event(**attributes) -> Event:
    return Event(event_id=f"e-{sorted(attributes.items())}", publisher="p", attributes=attributes)


class TestTopicFilter:
    def test_matches_same_topic_only(self):
        news = TopicFilter("news")
        assert news.matches(make_event(topic="news"))
        assert not news.matches(make_event(topic="sports"))
        assert not news.matches(make_event(price=3))

    def test_filter_id_and_topics(self):
        news = TopicFilter("news")
        assert news.filter_id == "topic:news"
        assert news.topics == ("news",)

    def test_callable_form(self):
        assert TopicFilter("news")(make_event(topic="news"))


class TestAttributeCondition:
    @pytest.mark.parametrize(
        "operator,value,attribute_value,expected",
        [
            ("==", 5, 5, True),
            ("==", 5, 6, False),
            ("!=", 5, 6, True),
            ("<", 5, 4, True),
            ("<=", 5, 5, True),
            (">", 5, 6, True),
            (">=", 5, 4, False),
            ("in", ("a", "b"), "a", True),
            ("in", ("a", "b"), "c", False),
            ("contains", "ab", "xaby", True),
            ("prefix", "foo", "foobar", True),
            ("prefix", "bar", "foobar", False),
        ],
    )
    def test_operators(self, operator, value, attribute_value, expected):
        condition = AttributeCondition("x", operator, value)
        assert condition.holds_for(make_event(x=attribute_value)) is expected

    def test_missing_attribute_never_matches(self):
        condition = AttributeCondition("x", "==", 1)
        assert not condition.holds_for(make_event(y=1))

    def test_incomparable_types_do_not_match(self):
        condition = AttributeCondition("x", "<", 5)
        assert not condition.holds_for(make_event(x="a string"))

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            AttributeCondition("x", "~=", 1)

    def test_describe(self):
        assert AttributeCondition("x", ">=", 3).describe() == "x>=3"


class TestContentFilter:
    def test_all_conditions_must_hold(self):
        filter_ = ContentFilter(
            conditions=(
                AttributeCondition("category", "==", "metals"),
                AttributeCondition("level", ">=", 5),
            )
        )
        assert filter_.matches(make_event(category="metals", level=7))
        assert not filter_.matches(make_event(category="metals", level=3))
        assert not filter_.matches(make_event(category="energy", level=7))

    def test_empty_filter_matches_everything(self):
        assert ContentFilter().matches(make_event(anything=1))

    def test_build_shorthand(self):
        filter_ = equality_filter(category="metals", level=5)
        assert filter_.matches(make_event(category="metals", level=5))
        assert not filter_.matches(make_event(category="metals", level=6))

    def test_topics_pinned_by_equality_on_topic(self):
        filter_ = ContentFilter(
            conditions=(AttributeCondition("topic", "==", "news"),)
        )
        assert filter_.topics == ("news",)
        assert equality_filter(level=3).topics == ()

    def test_filter_ids_are_stable_and_distinct(self):
        first = equality_filter(category="a")
        second = equality_filter(category="a")
        third = equality_filter(category="b")
        assert first.filter_id == second.filter_id
        assert first.filter_id != third.filter_id


_OPERATOR_NAMES = ("==", "!=", "<", "<=", ">", ">=", "in", "contains", "prefix")
#: Values of every kind a condition or an event may carry: numbers against
#: strings do not order, a number is no container, ``None`` is neither.
_values = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from(["", "a", "ab", "abc"]),
    st.tuples(st.sampled_from(["a", 1]), st.sampled_from(["ab", 2])),
    st.none(),
    st.floats(allow_nan=False, min_value=-2.0, max_value=2.0),
)
_attribute_names = st.sampled_from(["x", "y", "z"])
_conditions = st.builds(AttributeCondition, _attribute_names, st.sampled_from(_OPERATOR_NAMES), _values)

#: One filter of every kind.
EVERY_KIND = (
    TopicFilter("news"),
    equality_filter(name="metals", category="metals", level=5),
    ContentFilter(conditions=tuple(AttributeCondition("x", name, "ab") for name in _OPERATOR_NAMES)),
)
_PROBES = (
    make_event(topic="news"),
    make_event(category="metals", level=5),
    make_event(level=5, x="ab"),
    make_event(x="abc"),
    make_event(x=3),
    make_event(),
)


class TestCompiledContentFilter:
    @given(st.lists(_conditions, max_size=4), st.dictionaries(_attribute_names, _values, max_size=3))
    def test_matches_is_the_conjunction_of_its_conditions(self, conditions, attributes):
        event = Event(event_id="e", publisher="p", attributes=attributes)
        filter_ = ContentFilter(conditions=tuple(conditions))
        assert filter_.matches(event) == all(condition.holds_for(event) for condition in conditions)

    def test_absent_attribute_and_incomparable_types_do_not_match(self):
        filter_ = ContentFilter(conditions=(AttributeCondition("x", "<", 5),))
        assert not filter_.matches(make_event(y=1))
        assert not filter_.matches(make_event(x="a string"))
        assert not ContentFilter(conditions=(AttributeCondition("x", "in", 5),)).matches(make_event(x=1))

    def test_the_compiled_form_is_no_part_of_the_filters_identity(self):
        filter_ = equality_filter(name="metals", category="metals", level=5)
        assert repr(filter_) == (
            "ContentFilter(conditions=(AttributeCondition(attribute='category', operator='==', "
            "value='metals'), AttributeCondition(attribute='level', operator='==', value=5)), name='metals')"
        )
        assert filter_.filter_id == "content:metals:category=='metals'&level==5"
        assert set(filter_.to_dict()) == {"kind", "name", "conditions"}
        twin = equality_filter(name="metals", category="metals", level=5)
        assert filter_ == twin and hash(filter_) == hash(twin)

    @pytest.mark.parametrize("filter_", EVERY_KIND, ids=lambda filter_: type(filter_).__name__)
    def test_every_kind_survives_pickle_and_still_matches(self, filter_):
        copy = pickle.loads(pickle.dumps(filter_))
        assert copy == filter_ and copy.filter_id == filter_.filter_id
        assert [copy.matches(event) for event in _PROBES] == [filter_.matches(event) for event in _PROBES]

    def test_content_filters_cross_the_process_boundary_of_a_parallel_sweep(self):
        from repro.experiments import ParallelSweepExecutor, get_scenario, grid_configs

        base = get_scenario("fig3-expressive").config.with_overrides(nodes=12, duration=3.0, drain_time=3.0)
        results = ParallelSweepExecutor(workers=2).run_many(grid_configs(base, {"fanout": [2, 3]}))
        for result in results:
            filters = [f for node in result.config.node_ids() for f in result.interest.filters_of(node)]
            assert filters and all(isinstance(f, ContentFilter) for f in filters)
            carried = {event.event_id: event for event in result.published_events}
            assert carried and any(f.matches(event) for f in filters for event in carried.values())


@pytest.mark.parametrize("kind", ["and", "or", "not", "all", "none"])
def test_a_retired_filter_kind_is_refused(kind):
    # Only the paper's topic and content filters decode; a combinator that an
    # older peer or artifact still carries is an error, never some other filter.
    with pytest.raises(ValueError, match=f"unknown filter kind '{kind}'"):
        filter_from_dict({"kind": kind, "children": [TopicFilter("news").to_dict()]})


class TestInterestFunction:
    def test_union_of_filters(self):
        interest = InterestFunction([TopicFilter("news"), TopicFilter("sports")])
        assert interest.is_interested(make_event(topic="news"))
        assert interest.is_interested(make_event(topic="sports"))
        assert not interest.is_interested(make_event(topic="tech"))

    def test_duplicate_filters_counted_once(self):
        interest = InterestFunction()
        assert interest.add(TopicFilter("news"))
        assert not interest.add(TopicFilter("news"))
        assert len(interest) == 1

    def test_remove(self):
        interest = InterestFunction([TopicFilter("news")])
        assert interest.remove(TopicFilter("news"))
        assert not interest.remove(TopicFilter("news"))
        assert len(interest) == 0
        assert not interest.is_interested(make_event(topic="news"))

    def test_matching_filters(self):
        news = TopicFilter("news")
        high = equality_filter(priority="high")
        interest = InterestFunction([news, high])
        matched = interest.matching_filters(make_event(topic="news", priority="high"))
        assert {f.filter_id for f in matched} == {news.filter_id, high.filter_id}

    def test_contains_and_len(self):
        interest = InterestFunction([TopicFilter("news")])
        assert TopicFilter("news") in interest
        assert len(interest) == 1

    def test_empty_interest_matches_nothing(self):
        assert not InterestFunction().is_interested(make_event(topic="news"))
