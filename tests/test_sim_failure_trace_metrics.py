"""Tests for node, churn, partition and perturb fault entries on a bare population, and the metric primitives."""

from __future__ import annotations

import pytest

from repro.faults import FaultController, FaultPlan, FaultPlanError, FaultSpec
from repro.sim import Network, Process, ProcessRegistry, Simulator
from repro.telemetry import Histogram, Telemetry, percentile


class Dummy(Process):
    def on_start(self) -> None:
        #: Simulated time of every message this process received.
        self.received = []

    def on_message(self, message) -> None:
        self.received.append(self.simulator.now)


def build_population(simulator, network, count=10):
    registry = ProcessRegistry()
    for index in range(count):
        process = Dummy(f"n{index}", simulator, network)
        process.start()
        registry.add(process)
    return registry


def run_plan(simulator, network, registry, *entries, until, telemetry=None):
    """Drive ``entries`` as one fault plan up to ``until``; returns the controller."""
    plan = FaultPlan(entries).validate()
    controller = FaultController(simulator, network, registry, plan, telemetry=telemetry)
    controller.start()
    simulator.run(until=until)
    return controller


class TestNodeEntries:
    def test_crash_and_recover_at_scheduled_times(self, simulator, network):
        registry = build_population(simulator, network, 3)
        crash = FaultSpec(kind="crash", at=1.0, nodes=("n0",))
        recover = FaultSpec(kind="recover", at=2.0, nodes=("n0",))
        controller = run_plan(simulator, network, registry, crash, recover, until=1.5)
        assert not registry.get("n0").alive
        assert registry.get("n1").alive
        simulator.run(until=2.5)
        assert registry.get("n0").alive
        assert controller.counts == {"crash": 1, "recover": 1}

    def test_leave_removes_from_registry(self, simulator, network):
        registry = build_population(simulator, network, 2)
        run_plan(simulator, network, registry, FaultSpec(kind="leave", at=1.0, nodes=("n1",)), until=2.0)
        assert "n1" not in registry
        assert "n0" in registry

    def test_unknown_action_rejected(self, simulator, network):
        registry = build_population(simulator, network, 1)
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            run_plan(simulator, network, registry, FaultSpec(kind="explode", at=1.0, nodes=("n0",)), until=2.0)
        assert registry.get("n0").alive

    def test_telemetry_counts_events(self, simulator, network):
        registry = build_population(simulator, network, 2)
        telemetry = Telemetry()
        crash = FaultSpec(kind="crash", at=1.0, nodes=("n0", "n1"))
        run_plan(simulator, network, registry, crash, until=2.0, telemetry=telemetry)
        snapshot = telemetry.snapshot()
        assert snapshot.counter_value("fault.events", action="crash") == 2
        assert snapshot.gauge_value("fault.nodes_down") == 2.0


class TestChurnEntries:
    def test_churn_takes_nodes_down_and_back(self, simulator, network):
        registry = build_population(simulator, network, 30)
        churn = FaultSpec(kind="churn", period=1.0, down_probability=0.5, up_probability=0.5)
        controller = run_plan(simulator, network, registry, churn, until=10.0)
        assert controller.counts["crash"] > 0
        assert controller.counts["recover"] > 0

    def test_protected_nodes_never_crash(self, simulator, network):
        registry = build_population(simulator, network, 10)
        churn = FaultSpec(kind="churn", period=1.0, down_probability=1.0, up_probability=0.0, protected=("n0",))
        run_plan(simulator, network, registry, churn, until=5.0)
        assert registry.get("n0").alive
        assert not registry.get("n1").alive

    def test_churn_ends_at_its_window(self, simulator, network):
        registry = build_population(simulator, network, 10)
        churn = FaultSpec(kind="churn", period=1.0, down_probability=1.0, up_probability=1.0, until=2.5)
        controller = run_plan(simulator, network, registry, churn, until=8.0)
        # t=1 crashes all ten, t=2 recovers them, the tick at t=3 is past the window.
        assert controller.counts == {"crash": 10, "recover": 10}

    def test_stop_halts_churn(self, simulator, network):
        registry = build_population(simulator, network, 10)
        churn = FaultSpec(kind="churn", period=1.0, down_probability=1.0, up_probability=1.0)
        controller = run_plan(simulator, network, registry, churn, until=1.0)
        assert controller.counts == {"crash": 10}
        controller.stop()
        simulator.run(until=5.0)
        assert controller.counts == {"crash": 10}
        assert not registry.alive()

    def test_invalid_probabilities_rejected(self, simulator, network):
        registry = build_population(simulator, network, 1)
        for field, value in (("up_probability", -0.1), ("down_probability", float("nan")), ("period", 0.0)):
            with pytest.raises(FaultPlanError, match=field):
                run_plan(simulator, network, registry, FaultSpec(kind="churn", **{field: value}), until=1.0)


class TestPartitionEntries:
    def test_partition_and_heal(self, simulator, network):
        registry = build_population(simulator, network, 4)
        split = FaultSpec(kind="partition", at=1.0, heal_after=2.0)
        controller = run_plan(simulator, network, registry, split, until=1.5)
        assert network._same_partition("n0", "n1")
        assert not network._same_partition("n0", "n3")
        simulator.run(until=4.0)
        assert network._same_partition("n0", "n3")
        assert controller.counts == {"partition": 1, "heal": 1}

    def test_invalid_fraction_rejected(self, simulator, network):
        for fraction in (0.0, 1.0, 1.5):
            with pytest.raises(FaultPlanError, match="fraction"):
                run_plan(simulator, network, None, FaultSpec(kind="partition", at=1.0, heal_after=1.0, fraction=fraction), until=2.0)

    def test_invalid_heal_after_rejected(self, simulator, network):
        for heal_after in (0.0, -1.0):
            with pytest.raises(FaultPlanError, match="heal_after"):
                run_plan(simulator, network, None, FaultSpec(kind="partition", at=1.0, heal_after=heal_after), until=2.0)
        assert not network.stats.dropped_partition

    def test_messages_dropped_across_partition_and_flow_after_heal(self, simulator, network):
        build_population(simulator, network, 2)
        split = FaultSpec(kind="partition", at=1.0, heal_after=2.0, groups=(("n0", 0), ("n1", 1)))
        run_plan(simulator, network, None, split, until=1.5)
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
        split = FaultSpec(kind="partition", at=1.0, heal_after=10.0, groups=(("n1", 1),))
        run_plan(simulator, network, None, split, until=1.5)
        # n0 and n2 are unassigned, hence both in group 0 and connected.
        assert network._same_partition("n0", "n2")
        assert not network._same_partition("n0", "n1")

    def test_a_split_respects_its_fraction(self, simulator, network):
        registry = build_population(simulator, network, 4)
        split = FaultSpec(kind="partition", at=1.0, heal_after=5.0, fraction=0.25)
        run_plan(simulator, network, registry, split, until=1.5)
        # One node (the first) is cut off; the remaining three stay together.
        assert not network._same_partition("n0", "n1")
        assert network._same_partition("n1", "n2")
        assert network._same_partition("n2", "n3")


class TestPerturbEntries:
    def test_extra_latency_holds_only_inside_its_window(self, simulator, network):
        registry = build_population(simulator, network, 2)
        slow = FaultSpec(kind="perturb", at=1.0, until=3.0, extra_latency=2.0)
        run_plan(simulator, network, None, slow, until=1.5)
        network.send("n0", "n1", "ping")  # in the window: link latency plus 2
        simulator.run(until=4.0)
        network.send("n0", "n1", "ping")  # lifted at t=3
        simulator.run(until=5.0)
        assert registry.get("n1").received == [pytest.approx(1.5 + network.latency + 2.0), pytest.approx(4.0 + network.latency)]

    def test_full_loss_drops_every_message_inside_its_window(self, simulator, network):
        registry = build_population(simulator, network, 2)
        blackout = FaultSpec(kind="perturb", at=1.0, until=3.0, loss_rate=1.0)
        controller = run_plan(simulator, network, None, blackout, until=1.5)
        for _ in range(5):
            network.send("n0", "n1", "ping")
        simulator.run(until=3.5)
        network.send("n0", "n1", "ping")
        simulator.run(until=4.0)
        assert network.stats.lost == 5
        assert len(registry.get("n1").received) == 1
        assert controller.counts["perturb"] == 1


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
