"""Tests for the network model and the process abstraction."""

from __future__ import annotations

import pytest

from repro.sim import (
    BernoulliLoss,
    ConstantLatency,
    LogNormalLatency,
    Message,
    Network,
    NoLoss,
    Process,
    ProcessRegistry,
    Simulator,
    UniformLatency,
)


class Recorder(Process):
    """Minimal process that records every message it receives."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []
        self.timer_fires = 0

    def on_message(self, message: Message) -> None:
        self.received.append(message)

    def on_timer(self, name: str) -> None:
        self.timer_fires += 1


def make_pair(simulator, network):
    a = Recorder("a", simulator, network)
    b = Recorder("b", simulator, network)
    a.start()
    b.start()
    return a, b


class TestNetwork:
    def test_message_is_delivered_after_latency(self, simulator):
        network = Network(simulator, latency_model=ConstantLatency(0.5))
        a, b = make_pair(simulator, network)
        a.send("b", "ping", payload={"n": 1})
        simulator.run()
        assert len(b.received) == 1
        assert b.received[0].payload == {"n": 1}
        assert simulator.now == pytest.approx(0.5)

    def test_send_to_unregistered_node_is_dropped(self, simulator, network):
        a = Recorder("a", simulator, network)
        a.start()
        a.send("ghost", "ping")
        simulator.run()
        assert network.stats.dropped_dead == 1
        assert network.stats.delivered == 0

    def test_dead_recipient_drops_message(self, simulator, network):
        a, b = make_pair(simulator, network)
        b.crash()
        a.send("b", "ping")
        simulator.run()
        assert b.received == []
        assert network.stats.delivered == 0

    def test_loss_model_drops_fraction(self, simulator):
        network = Network(simulator, loss_model=BernoulliLoss(1.0))
        a, b = make_pair(simulator, network)
        for _ in range(10):
            a.send("b", "ping")
        simulator.run()
        assert network.stats.lost == 10
        assert b.received == []

    def test_no_loss_delivers_everything(self, simulator):
        network = Network(simulator, loss_model=NoLoss())
        a, b = make_pair(simulator, network)
        for _ in range(10):
            a.send("b", "ping")
        simulator.run()
        assert len(b.received) == 10

    def test_partition_blocks_cross_group_traffic(self, simulator, network):
        a, b = make_pair(simulator, network)
        network.set_partition({"a": 0, "b": 1})
        a.send("b", "ping")
        simulator.run()
        assert b.received == []
        assert network.stats.dropped_partition == 1
        network.clear_partition()
        a.send("b", "ping")
        simulator.run()
        assert len(b.received) == 1

    def test_stats_track_kinds_and_bytes(self, simulator, network):
        a, b = make_pair(simulator, network)
        a.send("b", "gossip", size=5)
        a.send("b", "gossip", size=3)
        a.send("b", "control", size=1)
        simulator.run()
        assert network.stats.sent_by_kind["gossip"] == 2
        assert network.stats.sent_by_kind["control"] == 1
        assert network.stats.bytes_sent == 9

    def test_delivery_hook_invoked(self, simulator, network):
        seen = []
        network.add_delivery_hook(lambda message, at: seen.append((message.kind, at)))
        a, b = make_pair(simulator, network)
        a.send("b", "ping")
        simulator.run()
        assert seen and seen[0][0] == "ping"

    def test_latency_models_produce_values_in_range(self, simulator):
        rng = simulator.rng.stream("latency-test")
        uniform = UniformLatency(0.1, 0.2)
        lognormal = LogNormalLatency(median=0.1, sigma=0.3, cap=1.0)
        for _ in range(100):
            assert 0.1 <= uniform.sample(rng, "a", "b") <= 0.2
            assert 0.0 < lognormal.sample(rng, "a", "b") <= 1.0

    def test_latency_model_validation(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)
        with pytest.raises(ValueError):
            UniformLatency(0.5, 0.1)
        with pytest.raises(ValueError):
            BernoulliLoss(1.5)

    def test_set_alive_unknown_node_raises(self, network):
        with pytest.raises(KeyError):
            network.set_alive("nobody", True)


class TestProcess:
    def test_start_is_idempotent(self, simulator, network):
        process = Recorder("a", simulator, network)
        process.start()
        process.start()
        assert process.alive

    def test_crash_stops_timers_and_reception(self, simulator, network):
        a, b = make_pair(simulator, network)
        b.add_timer("tick", 1.0)
        simulator.run(until=2.0)
        assert b.timer_fires == 2
        b.crash()
        a.send("b", "ping")
        simulator.run(until=6.0)
        assert b.timer_fires == 2
        assert b.received == []

    def test_recover_resumes_reception(self, simulator, network):
        a, b = make_pair(simulator, network)
        b.crash()
        b.recover()
        a.send("b", "ping")
        simulator.run()
        assert len(b.received) == 1

    def test_crashed_process_cannot_send(self, simulator, network):
        a, b = make_pair(simulator, network)
        a.crash()
        assert a.send("b", "ping") is None
        simulator.run()
        assert b.received == []

    def test_leave_unregisters_from_network(self, simulator, network):
        a, b = make_pair(simulator, network)
        b.leave()
        assert "b" not in network.known_nodes()
        a.send("b", "ping")
        simulator.run()
        assert network.stats.dropped_dead == 1

    def test_timer_replacement_stops_previous(self, simulator, network):
        process = Recorder("a", simulator, network)
        process.start()
        process.add_timer("tick", 1.0)
        process.add_timer("tick", 10.0)
        simulator.run(until=5.0)
        assert process.timer_fires == 0

    def test_stop_timer(self, simulator, network):
        process = Recorder("a", simulator, network)
        process.start()
        process.add_timer("tick", 1.0)
        simulator.run(until=2.0)
        process.stop_timer("tick")
        simulator.run(until=10.0)
        assert process.timer_fires == 2
        assert process.get_timer("tick") is None

    def test_hooks_called_on_lifecycle(self, simulator, network):
        calls = []

        class Hooked(Process):
            def on_start(self):
                calls.append("start")

            def on_crash(self):
                calls.append("crash")

            def on_recover(self):
                calls.append("recover")

            def on_leave(self):
                calls.append("leave")

        process = Hooked("h", simulator, network)
        process.start()
        process.crash()
        process.recover()
        process.leave()
        assert calls == ["start", "crash", "recover", "leave", "crash"]


class TestProcessRegistry:
    def test_add_and_lookup(self, simulator, network):
        registry = ProcessRegistry()
        process = Recorder("a", simulator, network)
        registry.add(process)
        assert "a" in registry
        assert registry.get("a") is process
        assert len(registry) == 1

    def test_duplicate_rejected(self, simulator, network):
        registry = ProcessRegistry()
        registry.add(Recorder("a", simulator, network))
        with pytest.raises(ValueError):
            registry.add(Recorder("a", simulator, Network(simulator)))

    def test_alive_filtering(self, simulator, network):
        registry = ProcessRegistry()
        a = Recorder("a", simulator, network)
        b = Recorder("b", simulator, network)
        registry.add(a)
        registry.add(b)
        a.start()
        assert registry.alive_ids() == ["a"]
        assert [process.node_id for process in registry.alive()] == ["a"]

    def test_remove(self, simulator, network):
        registry = ProcessRegistry()
        registry.add(Recorder("a", simulator, network))
        registry.remove("a")
        assert "a" not in registry
        assert registry.ids() == []
