"""Tests for the network model and the process abstraction."""

from __future__ import annotations

import random
from dataclasses import asdict
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import (
    Message,
    Network,
    Process,
    ProcessRegistry,
    RngRegistry,
    Simulator,
    derive_seed,
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
        network = Network(simulator)
        network.latency = 0.5
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
        network = Network(simulator, loss_rate=1.0)
        a, b = make_pair(simulator, network)
        for _ in range(10):
            a.send("b", "ping")
        simulator.run()
        assert network.stats.lost == 10
        assert b.received == []

    def test_no_loss_delivers_everything(self, simulator):
        network = Network(simulator)
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

    def test_latency_model_validation(self, simulator):
        for loss_rate in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="loss_rate must be within"):
                Network(simulator, loss_rate=loss_rate)

    def test_lossless_network_looks_up_no_stream(self, simulator, monkeypatch):
        network = Network(simulator)
        a, b = make_pair(simulator, network)
        lookups = []
        stream = RngRegistry.stream
        monkeypatch.setattr(
            RngRegistry, "stream", lambda self, name: lookups.append(name) or stream(self, name)
        )
        for index in range(50):
            a.send("b", "ping", payload=index)
        simulator.run()
        assert len(b.received) == 50
        assert lookups == []

    def test_lossy_network_draws_once_per_message_reaching_the_loss_check(self, simulator):
        network = Network(simulator, loss_rate=0.3)
        a, b = make_pair(simulator, network)
        reference = random.Random(derive_seed(42, "network"))
        expected = []
        for index in range(200):
            if index % 5 == 0:
                a.send("ghost", "ping", payload=index)  # dropped before the check
            else:
                a.send("b", "ping", payload=index)
                if not reference.random() < 0.3:
                    expected.append(index)
        simulator.run()
        assert [message.payload for message in b.received] == expected
        assert network.stats.lost == 160 - len(expected)
        assert simulator.rng.stream("network").getstate() == reference.getstate()

    def test_set_alive_unknown_node_raises(self, network):
        with pytest.raises(KeyError):
            network.set_alive("nobody", True)


class ReferenceNetwork(Network):
    """The one-engine-event-per-message ``send`` that batching replaced."""

    def send(self, sender, recipient, kind, payload=None, size=1, trace=None):
        simulator = self.simulator
        message = Message(sender, recipient, kind, payload, size, simulator.now, trace)
        self.stats.record_sent(message)
        if recipient not in self._handlers:
            self._drop(message, "dead")
            return message
        if not self._same_partition(sender, recipient):
            self._drop(message, "partition")
            return message
        # A lookup per message: the network's once-bound stream must draw the same.
        if self.loss_rate > 0.0 and simulator.rng.stream("network").random() < self.loss_rate:
            self._drop(message, "lost")
            return message
        extra_latency = self._link_fate(message)
        if extra_latency is None:
            return message
        latency = self.latency + extra_latency
        simulator.schedule(latency, partial(self._deliver, message), "deliver:" + kind)
        return message


NODES = [f"n{index}" for index in range(5)]


class SlowUpLinks:
    """A duck-typed link profile: links to a higher id are slower and lossy."""

    def __init__(self, rng):
        self.rng = rng

    def effects(self, sender, recipient):
        return (0.05, 0.25) if sender < recipient else (0.0, 0.0)


class ScriptNode(Process):
    """Logs what it receives; ``relay`` fans out again, ``crash`` fails a peer.

    A ``crash`` message fails the next node in id order while its batch is
    still being delivered, so later messages of that batch find it dead.
    """

    def __init__(self, node_id, simulator, network, log, nodes):
        super().__init__(node_id, simulator, network)
        self.log = log
        self.nodes = nodes

    def on_message(self, message):
        now = self.simulator.now
        self.log.append((now, message.recipient, message.sender, message.kind, message.payload))
        tag, hop = message.payload
        index = NODES.index(self.node_id)
        if message.kind == "crash":
            self.nodes[NODES[(index + 1) % len(NODES)]].crash()
        elif message.kind == "relay" and hop < 2:
            for step in (1, 2):
                self.send(NODES[(index + step) % len(NODES)], "relay", (tag, hop + 1))


def run_script(network_cls, latency, lossy, geo, script):
    """Play ``script`` on a fresh engine; returns what an observer can see."""
    simulator = Simulator(seed=11)
    network = network_cls(simulator, loss_rate=0.2 if lossy else 0.0)
    network.latency = latency
    if geo:
        network.set_link_profile(SlowUpLinks(simulator.rng.stream("geo")))
    log = []
    network.add_delivery_hook(lambda message, at: log.append(("hook", at, message.kind)))
    nodes = {}
    for node_id in NODES:
        nodes[node_id] = ScriptNode(node_id, simulator, network, log, nodes)
        nodes[node_id].start()
    tags = iter(range(10_000))

    def perform(actions):
        for action in actions:
            verb = action[0]
            if verb == "send":
                _, sender, recipients, kind = action
                for recipient in recipients:
                    nodes[sender].send(recipient, kind, (next(tags), 0))
            elif verb == "callback":
                # Due exactly when a message sent now on an unperturbed link arrives.
                tag = next(tags)
                simulator.schedule(latency, lambda tag=tag: log.append((simulator.now, "callback", tag)))
            elif verb == "crash":
                nodes[action[1]].crash()
            elif verb == "recover":
                nodes[action[1]].recover()
            elif verb == "partition":
                network.set_partition(dict(zip(NODES, action[1])))
            elif verb == "heal":
                network.clear_partition()
            elif verb == "calm":
                network.clear_perturbation()
            else:
                _, loss_rate, extra = action
                network.set_perturbation(extra, loss_rate, simulator.rng.stream("perturb"))

    at = 0.0
    for gap, inside_engine, actions in script:
        at += gap
        if inside_engine:
            simulator.schedule_at(at, partial(perform, actions))
        else:
            simulator.run(until=at)
            perform(actions)
    simulator.run()
    return log, asdict(network.stats), simulator.processed_events


ACTIONS = st.one_of(
    st.tuples(
        st.just("send"),
        st.sampled_from(NODES),
        st.lists(st.sampled_from(NODES), min_size=1, max_size=4),
        st.sampled_from(["data", "relay", "crash"]),
    ),
    st.just(("callback",)),
    st.tuples(st.just("crash"), st.sampled_from(NODES)),
    st.tuples(st.just("recover"), st.sampled_from(NODES)),
    st.tuples(st.just("partition"), st.lists(st.integers(0, 1), min_size=5, max_size=5)),
    st.just(("heal",)),
    st.just(("calm",)),
    st.tuples(st.just("perturb"), st.sampled_from([0.0, 0.3]), st.sampled_from([0.0, 0.05])),
)
SCRIPTS = st.lists(
    st.tuples(st.sampled_from([0.0, 0.05, 0.1, 0.3]), st.booleans(), st.lists(ACTIONS, max_size=6)),
    min_size=1,
    max_size=8,
)
LATENCIES = st.sampled_from([0.0, 0.1])


class TestDeliveryBatches:
    """Same-instant sends share one engine event and change nothing else.

    The reference gives every message an engine event of its own; a batch
    must reproduce its delivery order, callback interleaving and counters.
    """

    @settings(deadline=None, max_examples=300)
    @given(LATENCIES, st.booleans(), st.booleans(), SCRIPTS)
    # A callback queued between two sends of one step must split their batch.
    @example(
        0.1, False, False,
        [(0.0, True, [("send", "n0", ["n1"], "data"), ("callback",), ("send", "n0", ["n2"], "data")])],
    )
    # A batch that has delivered takes no more messages, even for its instant
    # with nothing queued since.
    @example(
        0.0, False, False,
        [(0.0, False, [("send", "n0", ["n1"], "data")]), (0.0, False, [("send", "n0", ["n2"], "data")])],
    )
    # Faults switched on and off again mid-script: sends take the fault
    # layer's path while it is installed and skip it once it is gone.
    @example(
        0.1, True, False,
        [
            (0.0, False, [("partition", [0, 1, 0, 1, 0]), ("perturb", 0.3, 0.05), ("send", "n0", ["n1", "n2"], "data")]),
            (0.1, False, [("heal",), ("calm",), ("send", "n0", ["n1", "n2"], "relay")]),
        ],
    )
    def test_batching_matches_one_event_per_message(self, latency, lossy, geo, script):
        log, stats, events = run_script(Network, latency, lossy, geo, script)
        ref_log, ref_stats, ref_events = run_script(ReferenceNetwork, latency, lossy, geo, script)
        assert log == ref_log
        assert stats == ref_stats
        assert events <= ref_events

    def test_a_fan_out_is_one_engine_event(self):
        script = [(0.0, True, [("send", "n0", ["n1", "n2", "n3", "n4"], "data")])]
        log, _, events = run_script(Network, 0.1, False, False, script)
        assert [entry[1] for entry in log if entry[0] != "hook"] == ["n1", "n2", "n3", "n4"]
        assert events == 2  # the step, then one batch


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
        assert [process.node_id for process in registry.alive()] == ["a"]

    def test_remove(self, simulator, network):
        registry = ProcessRegistry()
        registry.add(Recorder("a", simulator, network))
        registry.remove("a")
        assert "a" not in registry
        assert registry.ids() == []
