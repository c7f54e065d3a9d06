"""Shared fixtures for the test suite."""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import sys
import time
from typing import Callable

import pytest

# Allow running the tests from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:  # pragma: no cover - environment shim
    sys.path.insert(0, _SRC)

from repro.core import WorkLedger
from repro.pubsub import AttributeCondition, ContentFilter, DeliveryLog, Event
from repro.sim import Network, Simulator
from repro.telemetry.instruments import HistogramState


@pytest.fixture
def simulator() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=42)


@pytest.fixture
def network(simulator: Simulator) -> Network:
    """A loss-free network attached to the simulator fixture."""
    return Network(simulator)


@pytest.fixture
def ledger() -> WorkLedger:
    """An empty accounting ledger."""
    return WorkLedger()


@pytest.fixture
def delivery_log() -> DeliveryLog:
    """An empty delivery log."""
    return DeliveryLog()


#: Cache keys of the ``smoke`` scenario, as gossip and with ``system="brokers"``:
#: sha256 over schema, ``repro.__version__`` and the flat config dict (see
#: ``experiments/cache.py``).  A new optional config field must leave them
#: alone; a release whose numbers differ bumps the version and re-pins them here
#: (last: 1.2.0, when ``FairGossipNode.after_round`` started feeding its estimator once per round).
SMOKE_CONFIG_HASH = "5af8231d86f1755ccec6701143d81a957e44d82d145ca9b76be8653b1838cf04"
SMOKE_BROKERS_CONFIG_HASH = "72f7471c7b75fc469f5e1e75703d425a40cc0bc05618737256ccb6540b694024"


def result_sha(result) -> str:
    """sha256 of an ``ExperimentResult``'s canonical JSON: the pinned-result digest."""
    blob = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def histogram_summary(snapshot, name: str, **tags):
    """Summary of one histogram of a telemetry snapshot (an empty summary if absent)."""
    wanted = tuple(sorted((key, str(value)) for key, value in tags.items()))
    for entry_name, entry_tags, state in snapshot.histograms:
        if entry_name == name and entry_tags == wanted:
            return state.summary()
    return HistogramState().summary()


def plan_json(plan) -> str:
    """``plan`` as the text of a ``--fault`` file: each entry its kind and non-default fields."""
    return json.dumps({"schema": "fault-plan/v1", "faults": [dict(entry.to_pairs()) for entry in plan.entries]})


def equality_filter(name: str = "", **equalities) -> ContentFilter:
    """A content filter of one ``==`` condition per attribute (sorted by attribute)."""
    conditions = tuple(
        AttributeCondition(attribute, "==", value) for attribute, value in sorted(equalities.items())
    )
    return ContentFilter(conditions=conditions, name=name)


def subscribed(subscriptions, node_id: str, topic: str) -> bool:
    """Whether ``node_id`` holds an active subscription matching an event of ``topic``."""
    probe = Event(event_id="probe", publisher="probe", attributes={"topic": topic})
    return node_id in subscriptions.interested_nodes(probe)


def geo_network(simulator: Simulator, node_ids, loss_rate: float = 0.1) -> Network:
    """A lossy network whose latency varies per link through a geo profile.

    Three domains with distinct cross-domain latencies (one pair lossy too),
    installed as the topology layer installs them: the program's only path
    to per-link latency differences.  Traces over it exercise the network's
    loss stream, the geo loss stream and more than one latency.
    """
    from repro.topology import GeoLinkProfile, TopologySpec, compile_domain_map

    spec = TopologySpec(
        domains=3,
        cross_latency=0.15,
        geo=(("d0", "d1", 0.05, 0.0), ("d1", "d2", 0.1, 0.2)),
    )
    network = Network(simulator, loss_rate=loss_rate)
    network.set_link_profile(
        GeoLinkProfile(
            compile_domain_map(spec, node_ids), rng=simulator.rng.stream("topology-geo")
        )
    )
    return network


async def settle(predicate: Callable[[], object], timeout: float = 5.0) -> bool:
    """Let a live cluster run until ``predicate()`` holds; False on timeout.

    Live tests that expect a *count* (all 25 deliveries, one recovery) wait
    on that count instead of sleeping a fixed time and hoping the host was
    fast enough: an idle machine returns as soon as the cluster got there,
    a loaded one gets up to ``timeout`` seconds.  Windows that assert
    *absence* (nothing crosses a partition) must keep a fixed length.
    """
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        await asyncio.sleep(0.005)
    return True


def build_gossip_system(
    nodes: int = 24,
    seed: int = 1,
    fair: bool = False,
    fanout: int = 3,
    gossip_size: int = 8,
    round_period: float = 1.0,
    membership: str = "cyclon",
    loss_rate: float = 0.0,
):
    """Helper used by protocol and integration tests to build small systems."""
    from repro.core import FairGossipSystem
    from repro.gossip import GossipSystem
    from repro.membership import cyclon_provider, full_membership_provider, lpbcast_provider
    simulator = Simulator(seed=seed)
    net = Network(simulator, loss_rate=loss_rate)
    node_ids = [f"node-{index}" for index in range(nodes)]
    if membership == "full":
        provider = full_membership_provider(net)
    elif membership == "lpbcast":
        provider = lpbcast_provider()
    else:
        provider = cyclon_provider()
    kwargs = {"fanout": fanout, "gossip_size": gossip_size, "round_period": round_period}
    cls = FairGossipSystem if fair else GossipSystem
    return cls(simulator, net, node_ids, membership_provider=provider, node_kwargs=kwargs)
