"""repro — Fair Event Dissemination.

A full reproduction of *Towards Fair Event Dissemination* (Baehni,
Guerraoui, Koldehofe, Monod — ICDCS 2007): the selective information
dissemination model, the basic push gossip algorithm of Figure 4, the
fairness model of Figures 1–3, the fairness-adaptive gossip protocols the
paper calls for, and the structured/broker baselines it compares against —
all running on a deterministic discrete-event simulator, and — via
:mod:`repro.runtime` — live on real time and real transports (in-process,
UDP, TCP) with the same protocol classes.

Quickstart::

    from repro import quick_system

    system = quick_system(nodes=64, seed=1)
    system.subscribe("node-0", system.topic_filter("news"))
    system.publish("node-1", topic="news", headline="hello world")
    system.run(until=20.0)
    print(system.delivery_log.delivery_count("node-0"))

See :mod:`repro.experiments` for the declarative experiment harness used by
the benchmarks, and the ``examples/`` directory for runnable scenarios.
"""

from typing import Optional

from .core import FairGossipSystem
from .gossip import GossipSystem
from .pubsub import ContentFilter, Event, TopicFilter
from .sim import Network, Simulator

__version__ = "1.2.0"

__all__ = [
    "Simulator",
    "Network",
    "GossipSystem",
    "FairGossipSystem",
    "Event",
    "TopicFilter",
    "ContentFilter",
    "quick_system",
    "__version__",
]


def quick_system(
    nodes: int = 32,
    seed: int = 0,
    fair: bool = False,
    fanout: int = 3,
    gossip_size: int = 8,
    round_period: float = 1.0,
):
    """Build a ready-to-use gossip system with sensible defaults.

    Parameters
    ----------
    nodes:
        Number of participants (named ``node-0`` ... ``node-{n-1}``).
    seed:
        Master seed for the deterministic simulator.
    fair:
        ``True`` builds the fairness-adaptive protocol, ``False`` the classic
        Figure 4 baseline.
    fanout / gossip_size / round_period:
        Protocol parameters (Figure 4's ``F``, ``N``, and the round length).

    Returns
    -------
    GossipSystem
        A started system; call ``subscribe`` / ``publish`` / ``run`` on it.
        The returned object also carries a ``topic_filter`` convenience
        method so quickstart code does not need extra imports.
    """
    simulator = Simulator(seed=seed)
    network = Network(simulator)
    node_ids = [f"node-{index}" for index in range(nodes)]
    node_kwargs = {
        "fanout": fanout,
        "gossip_size": gossip_size,
        "round_period": round_period,
    }
    system_class = FairGossipSystem if fair else GossipSystem
    system = system_class(simulator, network, node_ids, node_kwargs=node_kwargs)
    # Small convenience for quickstart scripts and doctests.
    system.topic_filter = TopicFilter  # type: ignore[attr-defined]
    return system
