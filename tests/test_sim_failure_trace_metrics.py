"""Tests for the imperative failure injectors and the metric primitives."""

from __future__ import annotations

import pytest

from repro.faults import ChurnInjector, CrashSchedule, PartitionInjector
from repro.sim import Network, Process, ProcessRegistry, Simulator
from repro.telemetry import Histogram, Telemetry, percentile


class Dummy(Process):
    pass


def build_population(simulator, network, count=10):
    registry = ProcessRegistry()
    for index in range(count):
        process = Dummy(f"n{index}", simulator, network)
        process.start()
        registry.add(process)
    return registry


class TestCrashSchedule:
    def test_crash_and_recover_at_scheduled_times(self, simulator, network):
        registry = build_population(simulator, network, 3)
        schedule = CrashSchedule(simulator, registry)
        schedule.add(1.0, "n0", "crash")
        schedule.add(2.0, "n0", "recover")
        simulator.run(until=1.5)
        assert not registry.get("n0").alive
        simulator.run(until=2.5)
        assert registry.get("n0").alive

    def test_leave_removes_from_registry(self, simulator, network):
        registry = build_population(simulator, network, 2)
        schedule = CrashSchedule(simulator, registry)
        schedule.add(1.0, "n1", "leave")
        simulator.run(until=2.0)
        assert "n1" not in registry

    def test_unknown_action_rejected(self, simulator, network):
        registry = build_population(simulator, network, 1)
        schedule = CrashSchedule(simulator, registry)
        with pytest.raises(ValueError):
            schedule.add(1.0, "n0", "explode")

    def test_telemetry_counts_events(self, simulator, network):
        registry = build_population(simulator, network, 1)
        telemetry = Telemetry()
        schedule = CrashSchedule(simulator, registry, telemetry=telemetry)
        schedule.add(1.0, "n0", "crash")
        simulator.run(until=2.0)
        assert telemetry.snapshot().counter_value("fault.events", action="crash") == 1


class TestChurnInjector:
    def test_churn_takes_nodes_down_and_back(self, simulator, network):
        registry = build_population(simulator, network, 30)
        injector = ChurnInjector(
            simulator, registry, period=1.0, down_probability=0.5, up_probability=0.5
        )
        injector.start()
        simulator.run(until=10.0)
        assert injector.crashes > 0
        assert injector.recoveries > 0

    def test_protected_nodes_never_crash(self, simulator, network):
        registry = build_population(simulator, network, 10)
        injector = ChurnInjector(
            simulator,
            registry,
            period=1.0,
            down_probability=1.0,
            up_probability=0.0,
            protected=["n0"],
        )
        injector.start()
        simulator.run(until=5.0)
        assert registry.get("n0").alive
        assert not registry.get("n1").alive

    def test_stop_halts_churn(self, simulator, network):
        registry = build_population(simulator, network, 10)
        injector = ChurnInjector(simulator, registry, period=1.0, down_probability=1.0)
        injector.start()
        simulator.run(until=1.0)
        crashes = injector.crashes
        injector.stop()
        simulator.run(until=5.0)
        assert injector.crashes == crashes

    def test_invalid_probabilities_rejected(self, simulator, network):
        registry = build_population(simulator, network, 1)
        with pytest.raises(ValueError):
            ChurnInjector(simulator, registry, down_probability=1.5)


class TestPartitionInjector:
    def test_partition_and_heal(self, simulator, network):
        build_population(simulator, network, 4)
        injector = PartitionInjector(simulator, network)
        injector.split_in_two(["n0", "n1", "n2", "n3"], time=1.0, heal_after=2.0)
        simulator.run(until=1.5)
        assert network._same_partition("n0", "n1")
        assert not network._same_partition("n0", "n3")
        simulator.run(until=4.0)
        assert network._same_partition("n0", "n3")
        assert injector.partitions_installed == 1

    def test_invalid_fraction_rejected(self, simulator, network):
        injector = PartitionInjector(simulator, network)
        with pytest.raises(ValueError):
            injector.split_in_two(["a", "b"], time=1.0, heal_after=1.0, fraction=1.5)

    def test_invalid_heal_after_rejected(self, simulator, network):
        injector = PartitionInjector(simulator, network)
        with pytest.raises(ValueError):
            injector.partition_at(1.0, {"a": 1}, heal_after=0.0)

    def test_messages_dropped_across_partition_and_flow_after_heal(self, simulator, network):
        build_population(simulator, network, 2)
        injector = PartitionInjector(simulator, network)
        injector.partition_at(1.0, {"n0": 0, "n1": 1}, heal_after=2.0)
        simulator.run(until=1.5)
        network.send("n0", "n1", "ping")
        simulator.run(until=2.0)
        assert network.stats.dropped_partition == 1
        assert network.stats.delivered == 0
        simulator.run(until=3.5)  # healed at t=3
        network.send("n0", "n1", "ping")
        simulator.run(until=4.0)
        assert network.stats.dropped_partition == 1
        assert network.stats.delivered == 1

    def test_nodes_absent_from_assignment_default_to_group_zero(self, simulator, network):
        build_population(simulator, network, 3)
        injector = PartitionInjector(simulator, network)
        injector.partition_at(1.0, {"n1": 1}, heal_after=10.0)
        simulator.run(until=1.5)
        # n0 and n2 are unassigned, hence both in group 0 and connected.
        assert network._same_partition("n0", "n2")
        assert not network._same_partition("n0", "n1")

    def test_overlapping_partitions_last_installed_wins(self, simulator, network):
        build_population(simulator, network, 2)
        injector = PartitionInjector(simulator, network)
        injector.partition_at(1.0, {"n0": 0, "n1": 1}, heal_after=10.0)
        injector.partition_at(2.0, {"n0": 0, "n1": 0}, heal_after=10.0)
        simulator.run(until=2.5)
        assert injector.partitions_installed == 2
        assert network._same_partition("n0", "n1")

    def test_split_in_two_respects_fraction(self, simulator, network):
        build_population(simulator, network, 4)
        injector = PartitionInjector(simulator, network)
        injector.split_in_two(["n0", "n1", "n2", "n3"], time=1.0, heal_after=5.0, fraction=0.25)
        simulator.run(until=1.5)
        # One node (the first) is cut off; the remaining three stay together.
        assert not network._same_partition("n0", "n1")
        assert network._same_partition("n1", "n2")
        assert network._same_partition("n2", "n3")


class TestMetrics:
    def test_counter_increments_and_rejects_negative(self):
        telemetry = Telemetry()
        telemetry.increment("sent", 3, node="a")
        telemetry.increment("sent", node="a")
        assert telemetry.snapshot().counter_value("sent", node="a") == 4
        with pytest.raises(ValueError):
            telemetry.counter("sent", node="a").increment(-1)

    def test_counter_total_and_per_node(self):
        telemetry = Telemetry()
        telemetry.increment("sent", 2, node="a")
        telemetry.increment("sent", 3, node="b")
        snapshot = telemetry.snapshot()
        assert snapshot.counter_total("sent") == 5
        assert snapshot.counters_by_tag("sent", "node") == {"a": 2, "b": 3}

    def test_gauge_set(self):
        telemetry = Telemetry()
        telemetry.gauge("fanout", node="a").set(4)
        telemetry.gauge("fanout", node="a").set(2)
        assert telemetry.snapshot().gauges_by_tag("fanout", "node") == {"a": 2}

    def test_histogram_summary(self):
        histogram = Histogram()
        for value in [1.0, 2.0, 3.0, 4.0, 5.0]:
            histogram.observe(value)
        summary = histogram.summary()
        assert summary.count == 5
        assert summary.mean == 3.0
        assert summary.minimum == 1.0
        assert summary.maximum == 5.0
        assert summary.p50 == 3.0

    def test_empty_histogram_summary_is_zeroes(self):
        summary = Histogram().summary()
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_percentile_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
        assert percentile([], 0.5) == 0.0
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_snapshot_names_each_instrument_by_type(self):
        telemetry = Telemetry()
        telemetry.increment("sent")
        telemetry.gauge("fanout").set(1)
        telemetry.observe("latency", 0.3)
        snapshot = telemetry.snapshot()
        assert [name for name, _tags, _value in snapshot.counters] == ["sent"]
        assert [name for name, _tags, _value in snapshot.gauges] == ["fanout"]
        assert [name for name, _tags, _state in snapshot.histograms] == ["latency"]
