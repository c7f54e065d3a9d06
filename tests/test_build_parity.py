"""One spec builds the same gossip nodes on both engines.

``build_stack`` takes no engine flag, so a spec built on a ``Simulator`` and
the same spec built by ``NodeHost(spec=)`` on ``MemoryTransport`` must give
every node id the same class, the same Figure 4 parameters and the same
event buffer.  The ``live`` scenario declares a buffer of its own (4000,
``least-forwarded``), the ``smoke`` scenario keeps the defaults, and the
third spec sets both buffer fields with ``--set``-style overrides.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.experiments import get_scenario
from repro.registry.builtins import GOSSIP_KINDS, build_popularity, build_stack
from repro.runtime.host import NodeHost
from repro.runtime.transport import MemoryTransport
from repro.sim import Network, Simulator

SPECS = [
    ("live", {}),
    ("smoke", {}),
    ("smoke", {"system.selection_strategy": "oldest", "system.buffer_capacity": 64}),
]


def shape(nodes):
    """What a build decides for each node id."""
    return {
        node_id: (
            type(node),
            node.fanout,
            node.gossip_size,
            node.round_period,
            node.buffer.capacity,
            node.buffer.max_rounds,
            node.selection_strategy,
        )
        for node_id, node in nodes.items()
    }


def simulated(spec):
    simulator = Simulator(seed=spec.seed)
    system = build_stack(spec, simulator, Network(simulator), popularity=build_popularity(spec))
    return shape(system.nodes)


def live(spec):
    async def scenario():
        host = NodeHost(MemoryTransport(), seed=spec.seed, spec=spec)
        await host.start()
        try:
            return shape(host.system.nodes)
        finally:
            await host.stop()

    return asyncio.run(scenario())


@pytest.mark.parametrize("kind", sorted(GOSSIP_KINDS))
@pytest.mark.parametrize(
    "scenario, overrides", SPECS, ids=["live", "smoke", "smoke-oldest-64"]
)
def test_one_spec_builds_the_same_gossip_nodes_on_both_engines(kind, scenario, overrides):
    spec = get_scenario(scenario).spec.with_values({**overrides, "system.kind": kind})
    nodes = simulated(spec)
    assert len(nodes) == spec.nodes
    assert live(spec) == nodes
    buffers = {(entry[4], entry[6]) for entry in nodes.values()}
    assert buffers == {(spec.system.buffer_capacity, spec.system.selection_strategy)}
