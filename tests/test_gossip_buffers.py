"""Tests for the gossip event buffer and its selection strategies."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip import EventBuffer, SELECTION_STRATEGIES
from repro.pubsub import Event


def make_event(index: int, size: int = 1) -> Event:
    return Event(event_id=f"e{index}", publisher="p", attributes={"topic": "t"}, size=size)


# ------------------------------------------------------------ the reference


@dataclass
class ReferenceBufferedEvent:
    event: Event
    forwarded_count: int = 0
    rounds_held: int = 0

    @property
    def event_id(self) -> str:
        return self.event.event_id


class ReferenceEventBuffer:
    """The buffer as it was before it was indexed by arrival round, verbatim.

    Every entry carries its own ``rounds_held``; a round rewrites all of
    them, eviction scans all of them, and ``select`` shuffles all of them
    and sorts the shuffled list.  Kept as the oracle: it shares no state
    layout with :class:`EventBuffer`, so the two can only agree by meaning
    the same thing.
    """

    def __init__(self, capacity: int = 200, max_rounds: int = 20) -> None:
        if capacity <= 0 or max_rounds <= 0:
            raise ValueError("capacity and max_rounds must be positive")
        self.capacity = capacity
        self.max_rounds = max_rounds
        self._entries: Dict[str, ReferenceBufferedEvent] = {}
        self.evictions = 0
        self.expirations = 0

    def add(self, event: Event) -> bool:
        if event.event_id in self._entries:
            return False
        if len(self._entries) >= self.capacity:
            self._evict_one()
        self._entries[event.event_id] = ReferenceBufferedEvent(event=event)
        return True

    def _evict_one(self) -> None:
        victim = max(
            self._entries.values(),
            key=lambda entry: (entry.rounds_held, entry.forwarded_count, entry.event_id),
        )
        del self._entries[victim.event_id]
        self.evictions += 1

    def start_round(self) -> int:
        expired = [
            entry.event_id
            for entry in self._entries.values()
            if entry.rounds_held + 1 > self.max_rounds
        ]
        for event_id in expired:
            del self._entries[event_id]
        self.expirations += len(expired)
        for entry in self._entries.values():
            entry.rounds_held += 1
        return len(expired)

    def mark_forwarded(self, event_ids: Iterable[str]) -> None:
        for event_id in event_ids:
            entry = self._entries.get(event_id)
            if entry is not None:
                entry.forwarded_count += 1

    def remove(self, event_id: str) -> bool:
        return self._entries.pop(event_id, None) is not None

    def select(self, count: int, rng: random.Random, strategy: str = "random") -> List[Event]:
        if count <= 0 or not self._entries:
            return []
        entries = list(self._entries.values())
        rng.shuffle(entries)
        if strategy == "random":
            chosen = entries[:count]
        elif strategy == "newest":
            chosen = sorted(entries, key=lambda entry: entry.rounds_held)[:count]
        elif strategy == "oldest":
            chosen = sorted(entries, key=lambda entry: -entry.rounds_held)[:count]
        elif strategy == "least-forwarded":
            chosen = sorted(
                entries, key=lambda entry: (entry.forwarded_count, entry.rounds_held)
            )[:count]
        else:
            raise ValueError(f"unknown selection strategy {strategy!r}")
        return [entry.event for entry in chosen]

    def state(self) -> Dict[str, tuple]:
        """id -> (rounds held, times forwarded), in storage order."""
        return {
            event_id: (entry.rounds_held, entry.forwarded_count)
            for event_id, entry in self._entries.items()
        }


def state_of(buffer: EventBuffer) -> Dict[str, tuple]:
    """The same view of the buffer under test (white box: its round counter)."""
    return {
        event_id: (buffer._round - entry.arrived_round, entry.forwarded_count)
        for event_id, entry in buffer._entries.items()
    }


_ids = st.integers(min_value=0, max_value=15)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _ids),
        st.tuples(st.just("add"), _ids),  # adds outnumber the rest, so capacity is reached
        st.tuples(st.just("start_round"), st.none()),
        st.tuples(st.just("mark_forwarded"), st.lists(_ids, max_size=4)),
        st.tuples(st.just("remove"), _ids),
    ),
    max_size=80,
)


class TestAgainstTheReference:
    @settings(max_examples=300, deadline=None)
    @given(_operations, st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4))
    def test_same_contents_counters_and_victims_after_every_step(self, operations, capacity, max_rounds):
        buffer = EventBuffer(capacity=capacity, max_rounds=max_rounds)
        reference = ReferenceEventBuffer(capacity=capacity, max_rounds=max_rounds)
        for name, argument in operations:
            if name == "add":
                outcomes = [side.add(make_event(argument)) for side in (buffer, reference)]
            elif name == "start_round":
                outcomes = [side.start_round() for side in (buffer, reference)]
            elif name == "mark_forwarded":
                outcomes = [side.mark_forwarded([f"e{index}" for index in argument]) for side in (buffer, reference)]
            else:
                outcomes = [side.remove(f"e{argument}") for side in (buffer, reference)]
            assert outcomes[0] == outcomes[1]
            # Equal contents in equal order after a step that may have evicted
            # or expired means the same victims went.
            assert list(state_of(buffer).items()) == list(reference.state().items())
            assert (buffer.evictions, buffer.expirations) == (reference.evictions, reference.expirations)
            assert len(buffer) == len(reference._entries) <= capacity


class TestEventBuffer:
    def test_add_and_duplicate_rejection(self):
        buffer = EventBuffer(capacity=10)
        assert buffer.add(make_event(1))
        assert not buffer.add(make_event(1))
        assert len(buffer) == 1
        assert "e1" in buffer
        assert buffer.get("e1").event_id == "e1"
        assert buffer.get("missing") is None

    def test_capacity_eviction_prefers_oldest(self):
        buffer = EventBuffer(capacity=2, max_rounds=50)
        buffer.add(make_event(1))
        buffer.start_round()
        buffer.add(make_event(2))
        buffer.add(make_event(3))
        assert len(buffer) == 2
        assert "e1" not in buffer
        assert buffer.evictions == 1

    def test_round_expiration(self):
        buffer = EventBuffer(capacity=10, max_rounds=2)
        buffer.add(make_event(1))
        assert buffer.start_round() == 0
        assert buffer.start_round() == 0
        assert buffer.start_round() == 1
        assert len(buffer) == 0
        assert buffer.expirations == 1

    def test_select_random_is_bounded_and_unique(self):
        buffer = EventBuffer(capacity=20)
        for index in range(10):
            buffer.add(make_event(index))
        rng = random.Random(1)
        selection = buffer.select(4, rng, strategy="random")
        assert len(selection) == 4
        assert len({event.event_id for event in selection}) == 4
        assert buffer.select(100, rng, strategy="random")  # returns everything

    def test_select_newest_prefers_fresh_events(self):
        buffer = EventBuffer(capacity=20)
        buffer.add(make_event(1))
        buffer.start_round()
        buffer.add(make_event(2))
        rng = random.Random(1)
        assert [event.event_id for event in buffer.select(1, rng, strategy="newest")] == ["e2"]
        assert [event.event_id for event in buffer.select(1, rng, strategy="oldest")] == ["e1"]

    def test_select_least_forwarded(self):
        buffer = EventBuffer(capacity=20)
        buffer.add(make_event(1))
        buffer.add(make_event(2))
        buffer.mark_forwarded(["e1"])
        rng = random.Random(1)
        assert [event.event_id for event in buffer.select(1, rng, strategy="least-forwarded")] == ["e2"]

    def test_unknown_strategy_rejected(self):
        buffer = EventBuffer()
        buffer.add(make_event(1))
        with pytest.raises(ValueError):
            buffer.select(1, random.Random(1), strategy="bogus")

    def test_select_zero_or_empty_returns_nothing(self):
        buffer = EventBuffer()
        assert buffer.select(3, random.Random(1)) == []
        buffer.add(make_event(1))
        assert buffer.select(0, random.Random(1)) == []

    def test_remove(self):
        buffer = EventBuffer()
        buffer.add(make_event(1))
        assert buffer.remove("e1")
        assert not buffer.remove("e1")

    def test_event_ids_sorted(self):
        buffer = EventBuffer()
        for index in (3, 1, 2):
            buffer.add(make_event(index))
        assert buffer.event_ids() == ["e1", "e2", "e3"]
        assert [event.event_id for event in buffer.events()] == ["e1", "e2", "e3"]

    def test_invalid_constructor_arguments(self):
        with pytest.raises(ValueError):
            EventBuffer(capacity=0)
        with pytest.raises(ValueError):
            EventBuffer(max_rounds=0)

    def test_all_documented_strategies_work(self):
        buffer = EventBuffer()
        for index in range(5):
            buffer.add(make_event(index))
        rng = random.Random(2)
        for strategy in SELECTION_STRATEGIES:
            assert len(buffer.select(2, rng, strategy=strategy)) == 2


# ---------------------------------------------------------------- selection

#: strategy -> rank of an entry from (rounds held, times forwarded); lower is better.
RANKS = {
    "random": lambda held, forwarded: 0,
    "newest": lambda held, forwarded: held,
    "oldest": lambda held, forwarded: -held,
    "least-forwarded": lambda held, forwarded: (forwarded, held),
}

_fills = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("add"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("start_round"), st.none()),
        st.tuples(st.just("mark_forwarded"), st.lists(st.integers(min_value=0, max_value=40), max_size=6)),
    ),
    min_size=1,
    max_size=60,
)


def filled(buffer_class, fills):
    buffer = buffer_class(capacity=100, max_rounds=100)
    for name, argument in fills:
        if name == "add":
            buffer.add(make_event(argument))
        elif name == "start_round":
            buffer.start_round()
        else:
            buffer.mark_forwarded([f"e{index}" for index in argument])
    state = state_of(buffer) if buffer_class is EventBuffer else buffer.state()
    return buffer, state


class TestSelectionCut:
    @pytest.mark.parametrize("buffer_class", [EventBuffer, ReferenceEventBuffer])
    @pytest.mark.parametrize("strategy", SELECTION_STRATEGIES)
    @settings(max_examples=60, deadline=None)
    @given(fills=_fills, count=st.integers(min_value=1, max_value=45), seed=st.integers(0, 10_000))
    def test_everything_better_than_the_cut_nothing_worse_than_the_tie(
        self, buffer_class, strategy, fills, count, seed
    ):
        buffer, state = filled(buffer_class, fills)
        rank = {event_id: RANKS[strategy](*entry) for event_id, entry in state.items()}
        rng = random.Random(seed)
        before = rng.getstate()
        selected = [event.event_id for event in buffer.select(count, rng, strategy=strategy)]
        assert len(selected) == len(set(selected)) == min(count, len(state))
        if count >= len(state):
            assert set(selected) == set(state)
            tied_at_cut = 0
        else:
            cut = sorted(rank.values())[count - 1]
            assert {event_id for event_id in state if rank[event_id] < cut} <= set(selected)
            assert all(rank[event_id] <= cut for event_id in selected)
            within = sum(1 for value in rank.values() if value <= cut)
            tied_at_cut = 0 if within == count else within
        if buffer_class is EventBuffer and not tied_at_cut:
            # Nothing ties at the cut: the stream is left where it was.
            assert rng.getstate() == before

    @pytest.mark.parametrize("buffer_class", [EventBuffer, ReferenceEventBuffer])
    @pytest.mark.parametrize(
        "strategy,count,group,need",
        [
            ("random", 4, range(9), 4),
            ("newest", 4, range(3, 9), 4),
            ("oldest", 5, range(3, 9), 2),
            ("least-forwarded", 6, (3, 4, 5, 6), 3),
        ],
    )
    def test_tied_entries_are_picked_uniformly(self, buffer_class, strategy, count, group, need):
        """Three old entries, six new ones, the last two and an old one forwarded once."""
        buffer = buffer_class(capacity=100, max_rounds=100)
        for index in range(3):
            buffer.add(make_event(index))
        buffer.start_round()
        for index in range(3, 9):
            buffer.add(make_event(index))
        if strategy == "least-forwarded":
            # Rank order: e3..e6 (never forwarded, new), e1 e2 (never, old), e7 e8, e0.
            buffer.mark_forwarded(["e0", "e7", "e8"])
            buffer.start_round()
            buffer.add(make_event(9))
            buffer.add(make_event(10))
            buffer.add(make_event(11))  # three newer ones, taken whole
        runs = 2000
        picks = dict.fromkeys((f"e{index}" for index in group), 0)
        for seed in range(runs):
            selected = [event.event_id for event in buffer.select(count, random.Random(seed), strategy)]
            assert len(selected) == count
            for event_id in selected:
                if event_id in picks:
                    picks[event_id] += 1
        expected = need / len(picks)
        four_sigma = 4 * (expected * (1 - expected) / runs) ** 0.5
        assert sum(picks.values()) == need * runs
        for event_id, picked in picks.items():
            assert abs(picked / runs - expected) <= four_sigma, (event_id, picked / runs, expected)
