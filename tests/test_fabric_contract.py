"""One scripted sequence, two fabrics, one outcome.

``Network`` (discrete-event, driven by ``Simulator.run``) and
``RuntimeNetwork`` (live, over ``MemoryTransport``, driven by asyncio) are
built on one ``FaultInjectionSurface``.  The promise that a ``FaultPlan``
means the same physics on either substrate is checked here below the plan:
the same registrations, sends, crashes, partitions, perturbations, link
profile and departure must end in the same ``NetworkStats`` and the same
``drop`` span reasons on both.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import asdict

from repro.jsonio import MemorySink
from repro.runtime import AsyncScheduler, MemoryTransport, RuntimeNetwork, WallClock
from repro.sim import Network, Simulator
from repro.sim.rng import RngRegistry
from repro.tracing import DROP, TraceContext, Tracer
from tests.conftest import settle
from tests.test_sim_network_node import Recorder

EXTRA_LATENCY = 2.0


class OneLossyLink:
    """Duck-typed link profile: certain loss on one directed link, none elsewhere."""

    def __init__(self, sender: str, recipient: str) -> None:
        self._link = (sender, recipient)
        self.rng = random.Random(0)

    def effects(self, sender: str, recipient: str):
        return 0.0, 1.0 if (sender, recipient) == self._link else 0.0


def script(simulator, network, outcome):
    """The sequence.  Yields wherever frames in flight must land first."""
    a, b, c = (Recorder(name, simulator, network) for name in "abc")
    for process in (a, b, c):
        process.start()
    latencies = []
    network.add_delivery_hook(lambda message, at: latencies.append(at - message.sent_at))

    def send(sender: str, recipient: str) -> None:
        network.send(
            sender, recipient, "probe", payload={"n": 1}, trace=(TraceContext("e#0", 0, 1),)
        )

    send("a", "b")  # delivered
    send("a", "ghost")  # never registered: dead
    yield
    b.crash()
    send("a", "b")  # down at send time: dead
    yield
    b.recover()
    send("a", "b")
    b.crash()  # goes down with the frame in flight: dead
    yield
    b.recover()

    network.set_partition({"a": 1, "b": 0, "c": 1})
    send("a", "b")  # across the cut: partition
    send("a", "c")  # same side: delivered
    yield
    network.clear_partition()
    send("a", "b")  # healed: delivered
    yield

    network.set_perturbation(loss_rate=1.0, rng=random.Random(7))
    send("a", "b")  # lost
    yield
    network.set_perturbation(extra_latency=EXTRA_LATENCY)
    send("a", "b")  # delivered, late
    yield
    outcome["late_by"] = latencies[-1]
    network.clear_perturbation()

    network.set_link_profile(OneLossyLink("a", "b"))
    send("a", "b")  # the lossy link: lost
    send("b", "a")  # its reverse: delivered
    yield
    network.set_link_profile(None)

    network.set_partition({"a": 0, "b": 0, "c": 1})
    c.leave()
    # The leaver's group went with it, so ``a`` reaches for a node that is
    # gone (dead), not for one behind the cut (partition).
    send("a", "c")
    yield
    outcome["received"] = {p.node_id: len(p.received) for p in (a, b, c)}


EXPECTED_STATS = dict(
    sent=12, delivered=5, lost=2, dropped_dead=4, dropped_partition=1, bytes_sent=12
)
EXPECTED_DROPS = ["dead", "dead", "dead", "partition", "lost", "lost", "dead"]


def conserved(stats) -> bool:
    return stats.sent == (
        stats.delivered + stats.lost + stats.dropped_dead + stats.dropped_partition
    )


def finish(network, tracer, outcome):
    outcome["stats"] = asdict(network.stats)
    outcome["drops"] = [
        span.details["reason"] for span in tracer.sink.records() if span.kind == DROP
    ]
    return outcome


def run_on_simulator():
    simulator = Simulator(seed=1)
    network = Network(simulator)
    network.tracer = tracer = Tracer(MemorySink(), time_source=lambda: simulator.now)
    outcome = {}
    for _ in script(simulator, network, outcome):
        simulator.run()
    return finish(network, tracer, outcome)


def run_live():
    async def scenario():
        scheduler = AsyncScheduler(WallClock(time_scale=200.0), RngRegistry(1))
        transport = MemoryTransport()
        network = RuntimeNetwork(scheduler, transport)
        network.tracer = tracer = Tracer(MemorySink(), time_source=lambda: scheduler.now)
        await transport.start()
        outcome = {}
        for _ in script(scheduler, network, outcome):
            # The drain: every frame handed to the fabric is accounted for.
            assert await settle(lambda: conserved(network.stats)), network.stats
        scheduler.shutdown()
        await transport.stop()
        return finish(network, tracer, outcome)

    return asyncio.run(scenario())


def test_both_fabrics_end_in_the_same_stats_and_drop_reasons():
    sim, live = run_on_simulator(), run_live()
    for outcome in (sim, live):
        stats = outcome["stats"]
        assert {name: stats[name] for name in EXPECTED_STATS} == EXPECTED_STATS
        assert stats["sent_by_kind"] == {"probe": 12}
        assert outcome["drops"] == EXPECTED_DROPS
        assert outcome["received"] == {"a": 1, "b": 3, "c": 1}
        assert outcome["late_by"] >= EXTRA_LATENCY
    assert sim["stats"] == live["stats"]
    assert sim["drops"] == live["drops"]
