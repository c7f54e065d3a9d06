"""Tests for the live asyncio runtime: clock, scheduler, hosts, parity.

The runtime runs on real time, so these tests trade the simulator's exact
assertions for structural ones (deliveries happened, accounting recorded
them, fairness is in the simulator's ballpark).  Every run is kept short by
using a large ``time_scale`` — protocol rounds of 1.0 time unit become tens
of milliseconds of real time.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.analysis import fairness_table_from_snapshot
from repro.brokers.broker import WIRE_PAYLOADS as BROKER_PAYLOADS
from repro.core import EXPRESSIVE_POLICY, TOPIC_BASED_POLICY
from repro.experiments import ExperimentConfig, get_scenario, run_experiment
from repro.pubsub import Event, TopicFilter
from repro.registry import StackSpec
from repro.runtime import (
    AsyncScheduler,
    LoadGenerator,
    MemoryTransport,
    NodeHost,
    TcpTransport,
    UdpTransport,
    WallClock,
    encode_message,
)
from repro.sim.engine import SimulationError
from repro.sim.network import Message
from repro.runtime.cli import build_live_cluster
from repro.runtime.host import DELIVERIES_METRIC, DELIVERY_LATENCY_METRIC
from repro.sim.rng import RngRegistry
from repro.telemetry.report import load_artifact
from repro.workloads import TopicPopularity, TopicPublicationWorkload
from tests.conftest import histogram_summary, settle, subscribed

#: Documented tolerance of the runtime-vs-simulator parity check: the live
#: run shares the simulator's protocol code, seeds, interest assignment, and
#: publication stream, but message *timing* is wall-clock, so per-node
#: contribution/benefit ratios (and hence their Jain index) drift by the
#: round-count and message-interleaving differences.  Empirically the Jain
#: gap stays well under 0.1 on this workload; 0.25 gives CI headroom
#: without letting a broken accounting path slip through.
PARITY_JAIN_TOLERANCE = 0.25


def run_async(coroutine):
    return asyncio.run(coroutine)


class TestWallClock:
    def test_advances_with_real_time_and_scales(self):
        ticks = [100.0]
        clock = WallClock(time_scale=10.0, time_source=lambda: ticks[0])
        assert clock.now == 0.0
        ticks[0] = 100.5
        assert clock.now == pytest.approx(5.0)
        assert clock.units_to_seconds(5.0) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            WallClock(time_scale=0.0)
        with pytest.raises(ValueError):
            WallClock(start=-1.0)


class TestAsyncScheduler:
    def test_one_shot_and_periodic_timers_fire(self):
        async def scenario():
            scheduler = AsyncScheduler(WallClock(time_scale=100.0), RngRegistry(1))
            fired = []
            scheduler.schedule(1.0, lambda: fired.append("one-shot"))
            timer = scheduler.schedule_periodic(
                2.0, lambda: fired.append("tick"), jitter=0.5
            )
            cancelled = scheduler.schedule(1.0, lambda: fired.append("never"))
            cancelled.cancel()
            await asyncio.sleep(0.09)  # ~9 time units
            timer.stop()
            await asyncio.sleep(0.03)
            return fired, timer.fire_count, scheduler.processed_events

        fired, fire_count, processed = run_async(scenario())
        assert "one-shot" in fired
        assert "never" not in fired
        assert fire_count >= 2
        assert fired.count("tick") == fire_count
        assert processed == len(fired)

    def test_negative_delay_rejected(self):
        async def scenario():
            scheduler = AsyncScheduler(WallClock(time_scale=100.0))
            with pytest.raises(SimulationError):
                scheduler.schedule(-1.0, lambda: None)
            with pytest.raises(SimulationError):
                scheduler.schedule_at(scheduler.now - 5.0, lambda: None)

        run_async(scenario())

    def test_nan_time_rejected(self):
        async def scenario():
            scheduler = AsyncScheduler(WallClock(time_scale=100.0))
            with pytest.raises(SimulationError):
                scheduler.schedule(float("nan"), lambda: None)
            with pytest.raises(SimulationError):
                scheduler.schedule_at(float("nan"), lambda: None)
            assert not scheduler._events

        run_async(scenario())

    def test_shutdown_cancels_everything(self):
        async def scenario():
            scheduler = AsyncScheduler(WallClock(time_scale=100.0))
            fired = []
            scheduler.schedule(1.0, lambda: fired.append("late"))
            scheduler.schedule_periodic(1.0, lambda: fired.append("tick"))
            scheduler.shutdown()
            await asyncio.sleep(0.05)
            return fired

        assert run_async(scenario()) == []


def build_memory_host(nodes: int = 8, seed: int = 11, time_scale: float = 50.0) -> NodeHost:
    host = NodeHost(
        MemoryTransport(),
        seed=seed,
        time_scale=time_scale,
        node_kwargs={"fanout": 3, "gossip_size": 8, "round_period": 1.0},
    )
    host.add_nodes([f"node-{index:03d}" for index in range(nodes)])
    return host


class TestNodeHostMemory:
    def test_end_to_end_dissemination_and_accounting(self):
        async def scenario():
            host = build_memory_host()
            subscribers = host.node_ids()[:4]
            for node_id in subscribers:
                host.subscribe(node_id, TopicFilter("news"))
            await host.start()
            for index in range(10):
                host.publish(host.node_ids()[-1], topic="news")
            await settle(
                lambda: host.delivery_log.total_deliveries() == len(subscribers) * 10
            )
            await host.stop()
            return host, subscribers

        host, subscribers = run_async(scenario())
        # Every subscriber delivered every event (tiny cluster, many rounds).
        assert host.delivery_log.total_deliveries() == len(subscribers) * 10
        for node_id in subscribers:
            assert host.ledger.account(node_id).events_delivered == 10
        # Gossip sends were charged to the ledger and frames hit the codec.
        totals = host.ledger.totals()
        assert totals.gossip_messages_sent > 0
        assert host.transport.frames_sent > 0
        # Delivery latency landed in the metrics registry.
        latency = histogram_summary(host.telemetry.snapshot(), "rt.delivery_latency_units")
        assert latency.count == host.delivery_log.total_deliveries()
        assert latency.p50 > 0
        # The live fairness summary is readable and covers every node.
        summary = host.fairness_summary()
        assert len(summary.per_node) == 8

    @staticmethod
    def _frame_from_a_peer(body: bytes, until):
        """Hand a 5-node host ``body`` as a frame from a peer and run it until
        ``until(host, delivered)`` holds; returns the host, the messages its
        network handed to a node, and every exception the event loop reported."""

        async def scenario():
            errors, delivered = [], []
            asyncio.get_running_loop().set_exception_handler(lambda loop, context: errors.append(context))
            host = build_memory_host(nodes=5)
            host.subscribe("node-001", TopicFilter("wire"))
            host.network.add_delivery_hook(lambda message, now: delivered.append(message))
            await host.start()
            client = MemoryTransport(hub=host.transport._hub)
            await client.start()
            assert client.send("node-000", body)
            await settle(lambda: until(host, delivered))
            await host.stop()
            await client.stop()
            return host, delivered, errors

        return run_async(scenario())

    @pytest.mark.parametrize("kind", ["runtime.publish", "runtime.subscribe", "runtime.unsubscribe"])
    def test_a_frame_of_a_retired_runtime_kind_publishes_and_raises_nothing(self, kind):
        # ``runtime.*`` once were control frames the host acted on; now such a
        # frame is a plain-JSON message for the addressed node, which ignores it.
        event = Event(event_id="wire-1", publisher="node-000", attributes={"topic": "wire"})
        payload = event.to_dict() if kind == "runtime.publish" else TopicFilter("wire").to_dict()
        body = encode_message(Message("client", "node-000", kind, payload=payload))
        host, _, errors = self._frame_from_a_peer(
            body, lambda host, delivered: any(message.kind == kind for message in delivered)
        )
        assert not errors
        assert host.network.decode_errors == 0
        assert host.ledger.account("node-000").events_published == 0
        assert host.delivery_log.total_deliveries() == 0
        assert not subscribed(host.subscriptions, "node-000", "wire")

    def test_a_subscription_frame_with_a_retired_filter_kind_is_one_decode_error(self):
        valid = Message(
            "client", "node-000", "broker.subscribe",
            payload=BROKER_PAYLOADS["broker.subscribe"]("node-000", TopicFilter("wire"), True),
        )
        envelope = json.loads(encode_message(valid))
        envelope["payload"]["subscription_filter"] = {"kind": "and", "children": [TopicFilter("wire").to_dict()]}
        host, delivered, errors = self._frame_from_a_peer(
            json.dumps(envelope).encode(), lambda host, delivered: host.network.decode_errors == 1
        )
        assert not errors
        assert host.network.decode_errors == 1
        assert not [message for message in delivered if message.kind.startswith("broker.")]
        assert host.delivery_log.total_deliveries() == 0
        assert not subscribed(host.subscriptions, "node-000", "wire")

    def test_loadgen_paces_and_measures(self):
        async def scenario():
            host = build_memory_host(nodes=6)
            for node_id in host.node_ids():
                host.subscribe(node_id, TopicFilter("topic-00"))
            await host.start()
            workload = TopicPublicationWorkload(
                host, host.scheduler, TopicPopularity.uniform(1), host.node_ids()
            )
            generator = LoadGenerator(host, 200.0, workload)
            report = await generator.run(0.5)
            await asyncio.sleep(0.2)
            await host.stop()
            return generator, report

        generator, report = run_async(scenario())
        # Catch-up pacing achieves the offered rate within ~15%.
        assert report.published == pytest.approx(100, rel=0.15)
        assert report.events_per_second == pytest.approx(200, rel=0.2)
        assert len(generator.schedule.events) == report.published
        assert report.deliveries > 0
        assert 0 < report.latency_p50_seconds < 1.0

    def test_loadgen_counts_only_its_own_deliveries_from_the_hosts_instruments(self):
        async def scenario():
            host = build_memory_host(nodes=6)
            for node_id in host.node_ids():
                host.subscribe(node_id, TopicFilter("topic-00"))
            await host.start()
            host.publish("node-000", topic="topic-00")
            await settle(lambda: host.telemetry.snapshot().counter_total(DELIVERIES_METRIC) == 6)
            before = host.telemetry.snapshot()
            workload = TopicPublicationWorkload(
                host, host.scheduler, TopicPopularity.uniform(1), host.node_ids()
            )
            report = await LoadGenerator(host, 200.0, workload).run(0.3, drain_seconds=0.2)
            after = host.telemetry.snapshot()
            await host.stop()
            return host, report, before, after

        host, report, before, after = run_async(scenario())
        # Reading the host's instruments creates none: both snapshots list the same series.
        assert [name for name, _, _ in after.counters] == [name for name, _, _ in before.counters]
        assert [name for name, _, _ in after.histograms] == [name for name, _, _ in before.histograms]
        assert report.deliveries == (
            after.counter_total(DELIVERIES_METRIC) - before.counter_total(DELIVERIES_METRIC)
        )
        latency = histogram_summary(after, DELIVERY_LATENCY_METRIC)
        assert report.latency_mean_seconds == pytest.approx(host.clock.units_to_seconds(latency.mean))


def _missing_deliveries(host, events):
    """Why a live run fell short: the (node, event) pairs never delivered and
    the transport's frame counters."""
    log = host.delivery_log
    missing = [
        (node_id, event.event_id)
        for event in events
        for node_id in sorted(set(host.node_ids()) - {node for node, _ in log.event_latencies(event.event_id)})
    ]
    transport = host.transport
    return (
        f"missing deliveries {missing}; frames sent {transport.frames_sent}, "
        f"received {transport.frames_received}, send failures {transport.send_failures}"
    )


class TestSocketTransports:
    @pytest.mark.parametrize("transport_class", [UdpTransport, TcpTransport])
    def test_dissemination_over_real_sockets(self, transport_class):
        async def scenario():
            transport = transport_class(bind_host="127.0.0.1", bind_port=0)
            host = NodeHost(
                transport,
                seed=3,
                time_scale=50.0,
                node_kwargs={"fanout": 3, "gossip_size": 8, "round_period": 1.0},
            )
            host.add_nodes([f"node-{index:03d}" for index in range(5)])
            for node_id in host.node_ids():
                host.subscribe(node_id, TopicFilter("news"))
            await host.start()
            events = [host.publish("node-000", topic="news") for _ in range(5)]
            settled = await settle(lambda: host.delivery_log.total_deliveries() == 25)
            await host.stop()
            return host, None if settled else _missing_deliveries(host, events)

        host, missing = run_async(scenario())
        # All 5 events reached all 5 subscribers, and the bytes really went
        # through the kernel (frames counted by the socket transport).
        assert host.delivery_log.total_deliveries() == 25, missing
        assert host.transport.frames_sent > 0
        assert host.transport.bytes_sent > 0
        assert host.transport.frames_received > 0


class TestRuntimeSimulatorParity:
    """A live memory-transport run of a spec tracks the simulator run of the same spec.

    Both sides are built from one ``StackSpec`` the way their commands build
    them (``run_experiment`` / ``build_live_cluster``), so what does not
    depend on message timing is *identical*: the interest assignment, the
    publication stream (publisher rotation, topic draws, event size) and the
    policy fairness is judged under.  Message timing differs (wall clock vs
    virtual clock), so fairness ratios agree within
    ``PARITY_JAIN_TOLERANCE`` (see its docstring for the rationale).
    """

    DURATION_UNITS = 10.0
    RATE_PER_UNIT = 4.0
    TIME_SCALE = 25.0

    CONFIG = ExperimentConfig(
        name="parity",
        system="gossip",
        nodes=10,
        seed=505,
        topics=4,
        topic_exponent=1.0,
        interest_model="zipf",
        max_topics_per_node=4,
        publication_rate=RATE_PER_UNIT,
        publisher_fraction=0.3,
        event_size=2,
        duration=DURATION_UNITS,
        drain_time=6.0,
        fanout=4,
        gossip_size=8,
        membership="cyclon",
    )

    def runtime_run(self, spec: StackSpec, sim_deliveries: int):
        async def scenario():
            cluster = build_live_cluster(
                spec,
                MemoryTransport(),
                self.TIME_SCALE,
                self.RATE_PER_UNIT * self.TIME_SCALE,
            )
            host = cluster.host
            await host.start()
            cluster.interest.apply(host)
            await cluster.generator.run(self.DURATION_UNITS / self.TIME_SCALE)
            # A loaded machine gets longer to drain, an idle one moves on.
            await settle(
                lambda: host.delivery_log.total_deliveries() > 0.5 * sim_deliveries
            )
            await host.stop()
            return cluster

        return run_async(scenario())

    def test_fairness_parity_within_documented_tolerance(self):
        sim_result = run_experiment(self.CONFIG)
        cluster = self.runtime_run(self.CONFIG.spec(), sim_result.total_deliveries)
        host = cluster.host

        # Same spec, same seed: identical interests ...
        assert cluster.interest.to_dict() == sim_result.interest.to_dict()
        # ... and, for as far as both sides got, identical publications.
        def stream(events):
            return [(event.publisher, event.topic, event.size) for event in events]

        live_events = cluster.generator.schedule.events
        common = min(len(live_events), len(sim_result.published_events))
        assert common == pytest.approx(self.RATE_PER_UNIT * self.DURATION_UNITS, abs=3)
        assert stream(live_events)[:common] == stream(sim_result.published_events)[:common]
        assert {event.size for event in live_events} == {self.CONFIG.event_size}

        runtime_summary = host.fairness_summary(system_name="parity-rt")
        assert runtime_summary.policy_name == sim_result.fairness.policy_name
        sim_report = sim_result.fairness.report
        rt_report = runtime_summary.report

        # Both disseminated it: a broken runtime would show here first.
        assert sim_result.reliability.delivery_ratio > 0.7
        assert host.delivery_log.total_deliveries() > 0.5 * sim_result.total_deliveries

        # The headline fairness number agrees within the documented bound,
        # and so does the wasted-contribution share (both runs have the same
        # interested population, so contribution wasted on uninterested
        # nodes must stay comparably small).
        assert abs(rt_report.ratio_jain - sim_report.ratio_jain) <= PARITY_JAIN_TOLERANCE
        assert abs(rt_report.wasted_share - sim_report.wasted_share) <= 0.2

    def test_a_topic_policy_spec_is_judged_and_recorded_like_the_simulator(self, tmp_path):
        stream = tmp_path / "live.jsonl"
        spec = get_scenario("fig2-topic").spec.with_value("nodes", 12)
        assert spec.policy.kind == "topic"
        cluster = self.runtime_run(spec.with_telemetry([f"jsonl:{stream}"]), sim_deliveries=0)
        summary = cluster.host.fairness_summary()
        assert summary.policy_name == TOPIC_BASED_POLICY.name != EXPRESSIVE_POLICY.name

        # The live run record carries the per-node fairness gauges the
        # simulator's does, so `repro report` renders the same table.
        final = load_artifact(str(stream)).value[-1]
        nodes = set(spec.node_ids())
        assert set(final.gauges_by_tag("node.contribution", "node")) == nodes
        assert set(final.gauges_by_tag("node.benefit", "node")) == nodes
        assert fairness_table_from_snapshot(final) is not None
