"""Tests for the simulation core: RNG streams, clock, engine, timers."""

from __future__ import annotations

import functools
import random

import pytest

from repro.sim import (
    PeriodicTimer,
    RngRegistry,
    ScheduledEvent,
    SimulationError,
    Simulator,
    VirtualClock,
    derive_seed,
    weighted_choice,
    zipf_weights,
)


class TestRngRegistry:
    def test_same_seed_same_draws(self):
        first = RngRegistry(seed=7)
        second = RngRegistry(seed=7)
        assert [first.stream("a").random() for _ in range(5)] == [
            second.stream("a").random() for _ in range(5)
        ]

    def test_different_streams_are_independent(self):
        registry = RngRegistry(seed=7)
        a = [registry.stream("a").random() for _ in range(5)]
        registry2 = RngRegistry(seed=7)
        # Interleaving draws from another stream must not perturb stream "a".
        registry2.stream("b").random()
        b = [registry2.stream("a").random() for _ in range(5)]
        assert a == b

    def test_stream_order_does_not_matter(self):
        first = RngRegistry(seed=3)
        second = RngRegistry(seed=3)
        first.stream("x")
        first_value = first.stream("y").random()
        second.stream("y")
        second_value = second.stream("y").random()
        assert first_value == second_value

    def test_derive_seed_avoids_similar_name_collisions(self):
        assert derive_seed(1, "node-1") != derive_seed(1, "node-11")

    def test_zipf_weights_normalised_and_decreasing(self):
        weights = zipf_weights(10, 1.2)
        assert abs(sum(weights) - 1.0) < 1e-9
        assert all(weights[i] >= weights[i + 1] for i in range(9))

    def test_zipf_weights_uniform_when_exponent_zero(self):
        weights = zipf_weights(4, 0.0)
        assert all(abs(weight - 0.25) < 1e-9 for weight in weights)

    def test_zipf_weights_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(3, -1.0)

    def test_weighted_choice_validates_lengths(self):
        registry = RngRegistry(seed=1)
        with pytest.raises(ValueError):
            weighted_choice(registry.stream("w"), ["a"], [0.5, 0.5])
        with pytest.raises(ValueError):
            weighted_choice(registry.stream("w"), [], [])

    def test_weighted_choice_respects_zero_weight(self):
        registry = RngRegistry(seed=2)
        rng = registry.stream("w")
        picks = {weighted_choice(rng, ["a", "b"], [1.0, 0.0]) for _ in range(50)}
        assert picks == {"a"}


class TestVirtualClock:
    def test_starts_at_zero_by_default(self):
        assert VirtualClock().now == 0.0

    def test_advance_moves_forward(self):
        clock = VirtualClock()
        clock.advance_to(2.5)
        assert clock.now == 2.5

    def test_cannot_move_backwards(self):
        clock = VirtualClock(start=5.0)
        with pytest.raises(ValueError):
            clock.advance_to(1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(start=-1.0)


class TestSimulator:
    def test_events_run_in_timestamp_order(self, simulator):
        order = []
        simulator.schedule(2.0, lambda: order.append("late"))
        simulator.schedule(1.0, lambda: order.append("early"))
        simulator.run()
        assert order == ["early", "late"]

    def test_ties_break_by_insertion_order(self, simulator):
        order = []
        simulator.schedule(1.0, lambda: order.append("first"))
        simulator.schedule(1.0, lambda: order.append("second"))
        simulator.run()
        assert order == ["first", "second"]

    def test_clock_advances_to_event_time(self, simulator):
        seen = []
        simulator.schedule(3.5, lambda: seen.append(simulator.now))
        simulator.run()
        assert seen == [3.5]

    def test_run_until_stops_before_later_events(self, simulator):
        fired = []
        simulator.schedule(1.0, lambda: fired.append(1))
        simulator.schedule(10.0, lambda: fired.append(10))
        simulator.run(until=5.0)
        assert fired == [1]
        assert simulator.now == 5.0
        simulator.run()
        assert fired == [1, 10]

    def test_cancelled_event_does_not_fire(self, simulator):
        fired = []
        event = simulator.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        simulator.run()
        assert fired == []
        assert simulator.processed_events == 0

    def test_schedule_in_past_rejected(self, simulator):
        simulator.schedule(1.0, lambda: None)
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.schedule_at(0.5, lambda: None)
        with pytest.raises(SimulationError):
            simulator.schedule(-1.0, lambda: None)

    def test_nan_time_rejected(self, simulator):
        with pytest.raises(SimulationError):
            simulator.schedule_at(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            simulator.schedule(float("nan"), lambda: None)
        assert simulator.pending_events == 0

    def test_max_events_limits_execution(self, simulator):
        fired = []
        for index in range(10):
            simulator.schedule(float(index + 1), lambda index=index: fired.append(index))
        simulator.run(max_events=3)
        assert len(fired) == 3

    def test_max_events_before_until_leaves_the_clock_behind_pending_events(self, simulator):
        fired = []
        for index in range(1, 6):
            simulator.schedule_at(float(index), lambda index=index: fired.append(index))
        assert simulator.run(until=10.0, max_events=2) == 2
        assert simulator.now == 2.0
        assert simulator.run() == 3
        assert fired == [1, 2, 3, 4, 5]

    def test_max_events_still_advances_to_until_when_nothing_earlier_remains(self, simulator):
        simulator.schedule_at(1.0, lambda: None)
        simulator.schedule_at(2.0, lambda: None).cancel()
        simulator.schedule_at(20.0, lambda: None)
        assert simulator.run(until=10.0, max_events=1) == 1
        assert simulator.now == 10.0

    def test_equal_timestamps_never_compare_the_events(self, simulator, monkeypatch):
        def refuse(self, other):
            raise AssertionError("heap entries must order on (timestamp, sequence) alone")

        for name in ("__eq__", "__lt__", "__gt__", "__le__", "__ge__"):
            monkeypatch.setattr(ScheduledEvent, name, refuse, raising=False)
        order = []

        class Recorder:
            def mark(self):
                order.append("bound method")

        actions = [
            lambda: order.append("lambda"),
            Recorder().mark,
            functools.partial(order.append, "partial"),
            lambda: order.append("second lambda"),
        ]
        for action in actions:
            simulator.schedule(1.0, action)
        simulator.run()
        assert order == ["lambda", "bound method", "partial", "second lambda"]

    def test_cancelled_head_is_skipped_by_step_and_run_until(self, simulator):
        fired = []
        simulator.schedule(1.0, lambda: fired.append("cancelled")).cancel()
        simulator.schedule(2.0, lambda: fired.append("step"))
        simulator.schedule(3.0, lambda: fired.append("cancelled")).cancel()
        simulator.schedule(4.0, lambda: fired.append("run"))
        simulator.schedule(9.0, lambda: fired.append("late"))
        assert simulator.step() is True
        assert (fired, simulator.now) == (["step"], 2.0)
        assert simulator.run(until=5.0) == 1
        assert (fired, simulator.now) == (["step", "run"], 5.0)
        assert simulator.processed_events == 2

    def test_scheduled_event_rejects_stray_attributes(self, simulator):
        event = simulator.schedule(1.0, lambda: None, label="tick")
        assert (event.timestamp, event.label, event.cancelled) == (1.0, "tick", False)
        with pytest.raises(AttributeError):
            event.note = "stray"
        assert not hasattr(event, "__dict__")

    def test_events_scheduled_during_run_execute(self, simulator):
        order = []

        def chain():
            order.append("first")
            simulator.schedule(1.0, lambda: order.append("second"))

        simulator.schedule(1.0, chain)
        simulator.run()
        assert order == ["first", "second"]

    def test_step_returns_false_when_empty(self, simulator):
        assert simulator.step() is False

    def test_identical_seeds_give_identical_traces(self):
        def run_once():
            simulator = Simulator(seed=9)
            values = []
            simulator.schedule_periodic(
                1.0, lambda: values.append(simulator.rng.stream("x").random())
            )
            simulator.run(until=5.0)
            return values

        assert run_once() == run_once()


class TestPeriodicTimer:
    def test_fires_every_period(self, simulator):
        ticks = []
        simulator.schedule_periodic(1.0, lambda: ticks.append(simulator.now))
        simulator.run(until=5.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_initial_delay(self, simulator):
        ticks = []
        simulator.schedule_periodic(1.0, lambda: ticks.append(simulator.now), initial_delay=0.5)
        simulator.run(until=2.0)
        assert ticks[0] == 0.5

    def test_stop_prevents_future_firings(self, simulator):
        ticks = []
        timer = simulator.schedule_periodic(1.0, lambda: ticks.append(simulator.now))
        simulator.run(until=2.0)
        timer.stop()
        simulator.run(until=6.0)
        assert ticks == [1.0, 2.0]

    def test_jitter_stays_within_bounds(self, simulator):
        ticks = []
        simulator.schedule_periodic(1.0, lambda: ticks.append(simulator.now), jitter=0.2)
        simulator.run(until=10.0)
        gaps = [after - before for before, after in zip(ticks, ticks[1:])]
        assert all(0.8 <= gap <= 1.4 for gap in gaps)

    def test_fire_count(self, simulator):
        timer = simulator.schedule_periodic(1.0, lambda: None)
        simulator.run(until=4.0)
        assert timer.fire_count == 4

    def test_invalid_period_rejected(self, simulator):
        with pytest.raises(SimulationError):
            simulator.schedule_periodic(0.0, lambda: None)
        with pytest.raises(SimulationError):
            simulator.schedule_periodic(-1.0, lambda: None)

    def test_nan_period_and_jitter_rejected(self, simulator):
        with pytest.raises(SimulationError):
            PeriodicTimer(simulator, float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            PeriodicTimer(simulator, 1.0, lambda: None, jitter=float("nan"))

    def test_jittered_timer_looks_up_its_stream_once(self, simulator, monkeypatch):
        lookups = []
        stream = RngRegistry.stream
        monkeypatch.setattr(
            RngRegistry, "stream", lambda self, name: lookups.append(name) or stream(self, name)
        )
        timer = simulator.schedule_periodic(1.0, lambda: None, jitter=0.2)
        simulator.run(until=50.0)
        assert timer.fire_count >= 40
        assert lookups == ["periodic-timers"]

    def test_jitter_draws_follow_the_named_stream(self, simulator):
        ticks = []
        simulator.schedule_periodic(1.0, lambda: ticks.append(simulator.now), jitter=0.2)
        simulator.run(until=10.0)
        reference = random.Random(derive_seed(42, "periodic-timers"))
        expected, at = [], 0.0
        for _ in ticks:
            at += 1.0 + reference.uniform(0.0, 0.2)
            expected.append(at)
        assert ticks == pytest.approx(expected)
