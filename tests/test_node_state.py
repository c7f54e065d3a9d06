"""A node costs its own state: the rewrites that keep it so, and its footprint.

Three pieces of per-node state were once proportional to the population or
to a second table, and were rewritten to draw and decide exactly as before:

* a lazy node's eager budget is read off the tail of ``_first_seen`` instead
  of a second id -> round table (``HotUntilNode`` below keeps that table);
* a lazy node pulls from the shared sorted store order, stepping past its
  own slot, instead of from a sorted list of the other stores;
* ``bootstrap_views`` samples positions among the other ``N - 1`` ids
  instead of a list of them per node.

Each is checked here against the code it replaced.  The last test builds a
lazy system at two sizes and requires the traced bytes per node to stay
flat.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from itertools import islice

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.accounting import WorkLedger
from repro.experiments import get_scenario
from repro.experiments.scenarios import build_popularity, build_simulation, build_system
from repro.gossip.lazy import LazyPushGossipNode, _pop_due
from repro.gossip.system import bootstrap_views
from repro.membership import cyclon_provider
from repro.pubsub import DeliveryLog, Event
from repro.sim import Network, Simulator
from repro.telemetry import Telemetry


def lazy_node(node_class=LazyPushGossipNode, node_id: str = "n0", **kwargs) -> LazyPushGossipNode:
    simulator = Simulator(seed=1)
    return node_class(
        node_id,
        simulator,
        Network(simulator),
        membership_provider=cyclon_provider(),
        ledger=WorkLedger(),
        delivery_log=DeliveryLog(),
        **kwargs,
    )


# ---------------------------------------------------------------------------
# The hot window against the id -> round table it replaced
# ---------------------------------------------------------------------------


class HotUntilNode(LazyPushGossipNode):
    """The lazy node as it kept its eager budgets: a second id -> round table."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._hot_until = {}

    def _on_first_sight(self, event: Event) -> None:
        super()._on_first_sight(event)
        self._hot_until[event.event_id] = self._rounds_done + self.eager_rounds

    def _hot_events(self):
        hot_ids = list(islice(reversed(self._hot_until), self.current_gossip_size()))[::-1]
        return [event for event in map(self._event_payload, hot_ids) if event is not None]

    def after_round(self) -> None:
        self._rounds_done = now = self._rounds_done + 1
        spent = _pop_due(self._hot_until, now)
        if not self.is_store:
            for event_id in spent:
                self.buffer.remove(event_id)
        _pop_due(self._pending_pull, now)
        for event_id in _pop_due(self._first_seen, now - self.id_gc_rounds - 1):
            self._hot_until.pop(event_id, None)
            stored = self.store.pop(event_id, None)
            if stored is not None:
                self._store_bytes -= stored.size
            self.buffer.remove(event_id)
            self._trace_state.pop(event_id, None)
        self._hot_gauge.set(len(self._hot_until))
        self._store_gauge.set(len(self.store))
        self._store_bytes_gauge.set(float(self._store_bytes))


def node_state(node: LazyPushGossipNode):
    return (
        [event.event_id for event in node._hot_events()],
        node._hot_gauge.value,
        list(node._first_seen),
        sorted(node.buffer.event_ids()),
        list(node.store),
        node._advertised_ids(),
    )


@settings(max_examples=150, deadline=None)
@given(
    is_store=st.booleans(),
    eager_rounds=st.integers(1, 6),
    id_gc_rounds=st.integers(1, 6),
    gossip_size=st.integers(1, 4),
    steps=st.lists(st.integers(0, 3), max_size=40),
)
@example(is_store=False, eager_rounds=5, id_gc_rounds=2, gossip_size=2, steps=[2, 0, 1, 0, 0, 0, 0, 0, 0])
def test_hot_window_matches_the_hot_until_table(is_store, eager_rounds, id_gc_rounds, gossip_size, steps):
    """Each step sees that many new events, then ends the round (0: a quiet round)."""
    stores = ("n0",) if is_store else ("n1",)
    nodes = [
        lazy_node(node_class, store_ids=stores, gossip_size=gossip_size, id_gc_rounds=id_gc_rounds)
        for node_class in (LazyPushGossipNode, HotUntilNode)
    ]
    for node in nodes:
        node.eager_rounds = eager_rounds
    published = 0
    for fresh in steps:
        for node in nodes:
            for index in range(published, published + fresh):
                node._absorb_event(Event(event_id=f"e{index}", publisher="p", attributes={}))
        published += fresh
        assert node_state(nodes[0]) == node_state(nodes[1])
        for node in nodes:
            node.after_round()
        assert node_state(nodes[0]) == node_state(nodes[1])


# ---------------------------------------------------------------------------
# The pull draw over the shared store order
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    population=st.integers(1, 12),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pull_draw_matches_a_draw_over_the_other_stores(population, data, seed):
    ids = [f"n{index:02d}" for index in range(population)]
    stores = data.draw(st.sets(st.sampled_from(ids), min_size=1), label="stores")
    node_id = data.draw(st.sampled_from(ids), label="node")
    node = lazy_node(node_id=node_id, store_ids=tuple(sorted(stores)))
    assert node.is_store == (node_id in stores)
    node._rng = random.Random(seed)
    reference = random.Random(seed)
    others = sorted(stores - {node_id})
    non_stores = [candidate for candidate in ids if candidate not in stores]
    for sender in non_stores:
        expected = reference.choice(others) if others else sender
        assert node._recovery_target(sender) == expected
    for sender in sorted(stores):
        assert node._recovery_target(sender) == sender
    assert node._rng.random() == reference.random()


def test_a_lone_store_has_no_one_to_pull_from():
    node = lazy_node(store_ids=("n0",))
    assert node._recovery_target("n0") == "n0"
    assert lazy_node(store_ids=None)._recovery_target("n0") == "n0"


# ---------------------------------------------------------------------------
# bootstrap_views against the list it no longer builds
# ---------------------------------------------------------------------------


class Contacts:
    def __init__(self) -> None:
        self.seeds = None

    def bootstrap(self, seeds) -> None:
        self.seeds = list(seeds)


def list_and_sample(ids, rng, degree):
    """``bootstrap_views`` as it was: a list of the others per node, then a sample."""
    contacts = {}
    for node_id in ids:
        others = [candidate for candidate in ids if candidate != node_id]
        contacts[node_id] = others if degree >= len(others) else rng.sample(others, degree)
    return contacts


@settings(max_examples=150, deadline=None)
@given(population=st.integers(1, 90), degree=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
# random.sample copies a short population into a pool and draws a long one
# into a set of picks; 10 ids at degree 3 take the first branch, 60 the second.
@example(population=10, degree=3, seed=7)
@example(population=60, degree=3, seed=7)
def test_bootstrap_views_matches_list_and_sample(population, degree, seed):
    ids = [f"node-{index:03d}" for index in range(population)]
    nodes = {node_id: Contacts() for node_id in ids}
    rng = random.Random(seed)
    bootstrap_views(nodes, rng, degree)
    reference = random.Random(seed)
    assert {node_id: node.seeds for node_id, node in nodes.items()} == list_and_sample(ids, reference, degree)
    assert rng.random() == reference.random()


# ---------------------------------------------------------------------------
# The per-node footprint of a built lazy system
# ---------------------------------------------------------------------------


def built_bytes_per_node(nodes: int) -> float:
    """Traced bytes, per node, that building ``smoke-domains`` on lazy push leaves allocated."""
    config = get_scenario("smoke-domains").config.with_overrides(system="lazy-push", nodes=nodes)
    gc.collect()
    tracemalloc.start()
    try:
        simulator, network = build_simulation(config)
        popularity = build_popularity(config)
        system = build_system(config, simulator, network, popularity=popularity, telemetry=Telemetry())
        gc.collect()
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(system.nodes) == nodes
    return size / nodes


def test_a_lazy_node_costs_the_same_at_four_times_the_population():
    built_bytes_per_node(16)  # imports and first-use caches land outside the measured builds
    small, large = built_bytes_per_node(256), built_bytes_per_node(1024)
    assert abs(large / small - 1.0) <= 0.05, f"{small:.0f} B/node at 256 nodes, {large:.0f} B/node at 1024"
