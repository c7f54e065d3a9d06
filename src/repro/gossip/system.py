"""System wrapper wiring gossip nodes into a selective dissemination system.

:class:`GossipSystem` owns the simulator, network, ledger, delivery log, and
subscription table, creates one gossip node per participant, and exposes the
``publish / subscribe / unsubscribe`` API of Section 2.  It is the object the
examples, tests, and benchmarks interact with; the node class is pluggable so
the same wrapper serves the classic protocol (:class:`PushGossipNode`), the
push-pull variant, and the fair protocol of :mod:`repro.core.fair_gossip`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Type

from ..core.accounting import WorkLedger
from ..membership.base import MembershipProvider
from ..membership.cyclon import cyclon_provider
from ..pubsub.events import Event
from ..pubsub.filters import Filter
from ..pubsub.interfaces import DeliveryCallback, DeliveryLog, DisseminationSystem
from ..sim.engine import Simulator
from ..sim.network import Network
from .push import PushGossipNode

__all__ = ["GossipSystem", "bootstrap_views"]


def bootstrap_views(nodes: Dict[str, PushGossipNode], rng, degree: int) -> None:
    """Give every node ``degree`` random initial contacts (all others if fewer).

    It samples positions among the other ``N - 1`` ids, stepped past the node's
    own index: the draws a list of the others gave, without that list per node."""
    ids = list(nodes)
    others = len(ids) - 1
    for index, node in enumerate(nodes.values()):
        if degree >= others:
            node.bootstrap(ids[:index] + ids[index + 1:])
        else:
            node.bootstrap([ids[pick + (pick >= index)] for pick in rng.sample(range(others), degree)])


class GossipSystem(DisseminationSystem):
    """A complete gossip-based selective event dissemination system.

    Parameters
    ----------
    simulator / network:
        Pre-built simulation substrate (so experiments can install custom
        latency, loss, and failure models before creating the system).
    node_ids:
        Identifiers of the participants.
    membership_provider:
        Factory for per-node membership components; defaults to CYCLON views.
    node_class / node_kwargs:
        The gossip node implementation and its protocol parameters
        (``fanout``, ``gossip_size``, ``round_period`` ...).
    bootstrap_degree:
        Number of random seed contacts given to each node at start.
    """

    name = "push-gossip"

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        node_ids: Sequence[str],
        membership_provider: Optional[MembershipProvider] = None,
        node_class: Type[PushGossipNode] = PushGossipNode,
        node_kwargs: Optional[Dict] = None,
        bootstrap_degree: int = 10,
        ledger: Optional[WorkLedger] = None,
        delivery_log: Optional[DeliveryLog] = None,
    ) -> None:
        if not node_ids:
            raise ValueError("a gossip system needs at least one node")
        super().__init__(simulator, network, ledger, delivery_log)
        provider = membership_provider if membership_provider is not None else cyclon_provider()
        for node_id in node_ids:
            self._adopt(
                node_class(
                    node_id,
                    simulator,
                    network,
                    membership_provider=provider,
                    ledger=self.ledger,
                    delivery_log=self._delivery_log,
                    **(node_kwargs or {}),
                )
            )
        bootstrap_views(self.nodes, simulator.rng.stream("bootstrap"), bootstrap_degree)
        for node in self.nodes.values():
            node.start()

    # ----------------------------------------------------------- operations

    def publish(self, publisher_id: str, event: Optional[Event] = None, **attributes) -> Event:
        event = self._stamp(publisher_id, event, attributes)
        self.nodes[publisher_id].publish(event)
        return event

    def subscribe(
        self,
        node_id: str,
        subscription_filter: Filter,
        callbacks: Sequence[DeliveryCallback] = (),
    ) -> None:
        added = self.nodes[node_id].subscribe(subscription_filter)
        self._subscribed(node_id, subscription_filter, callbacks, record=added)

    def unsubscribe(self, node_id: str, subscription_filter: Filter) -> None:
        if self.nodes[node_id].unsubscribe(subscription_filter):
            self._unsubscribed(node_id, subscription_filter)
