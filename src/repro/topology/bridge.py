"""Bridge federation: re-publish topic events across domain boundaries.

Domains keep gossip to themselves (see
:mod:`repro.topology.membership`); what crosses a boundary is the
:class:`BridgeRouter`'s doing.  The router is a single per-run object hooked
into the network's delivery stream (the same
``add_delivery_hook`` surface both fabrics expose), so one implementation
serves the simulator and the live runtime:

* when a *bridge node* receives a gossip payload, every carried event is
  relayed once per foreign domain — but only by the event's deterministic
  *egress* bridge (sha256 over event id and domain pair), so k bridges
  share the relay load without coordination;
* relays travel as ``topology.bridge`` messages through the normal network
  send path, which means geo latency/loss and domain partitions apply to
  them like to any other traffic — and a healed partition is survived
  simply because bridges re-relay on every duplicate gossip receipt while
  the event is still circulating;
* on arrival, the *ingress* bridge absorbs the events into its local
  gossip node (its ``absorb_events`` primitive, the duplicate-suppressed
  injection path every received payload takes), from where normal
  intra-domain gossip takes over.

Bridge traffic is infrastructure that no ledger is charged for: it goes
straight to ``network.send``, so it never counts towards the paper's per-node
fairness contribution.
Observability: ``bridge.relayed`` / ``bridge.absorbed`` /
``bridge.duplicate`` counters (tagged with the origin/target domain) and
``topology.bridge`` spans parented into the event's infection tree.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Mapping, Optional, Tuple

from ..gossip.push import GossipMessage
from ..sim.network import Message
from ..telemetry import Telemetry
from ..tracing.context import TraceContext
from ..tracing.spans import BRIDGE_HOP
from .domains import DomainMap

__all__ = ["BRIDGE_MESSAGE_KIND", "BridgeRouter"]

#: Message kind carrying cross-domain relays (``topology.*`` namespace).
BRIDGE_MESSAGE_KIND = "topology.bridge"


def _rank(event_id: str, domain_a: str, domain_b: str) -> int:
    digest = hashlib.sha256(f"{event_id}/{domain_a}/{domain_b}".encode("utf-8")).hexdigest()
    return int(digest[:16], 16)


class BridgeRouter:
    """Relays topic events between domains through designated bridges.

    Parameters
    ----------
    network:
        Either fabric; the router registers itself as a delivery hook and
        sends relays through ``network.send``.
    domain_map:
        The compiled topology (bridge sets, domain membership).
    nodes:
        ``node_id -> gossip node`` for the locally hosted nodes; ingress
        absorption duck-types the node's ``absorb_events`` method.
    telemetry:
        :class:`~repro.telemetry.Telemetry` store for the ``bridge.*``
        counters (a private one when omitted).
    """

    def __init__(
        self,
        network,
        domain_map: DomainMap,
        nodes: Mapping[str, object],
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self._network = network
        self._domain_map = domain_map
        self._nodes = dict(nodes)
        self._telemetry = telemetry if telemetry is not None else Telemetry()
        self._bridge_set = frozenset(domain_map.bridge_nodes())
        self.relayed = 0
        self.absorbed = 0
        self.duplicates = 0
        network.add_delivery_hook(self._on_delivery)

    # ------------------------------------------------------------ hook entry

    def _on_delivery(self, message: Message, now: float) -> None:
        if message.kind == BRIDGE_MESSAGE_KIND:
            self._absorb(message)
            return
        if message.recipient not in self._bridge_set:
            return
        events = getattr(message.payload, "events", None)
        if events:
            self._relay(message, events)

    # ---------------------------------------------------------------- egress

    def _egress(self, event_id: str, home: str, target: str) -> str:
        bridges = self._domain_map.bridges[home]
        return bridges[_rank(event_id, home, target) % len(bridges)]

    def _ingress(self, event_id: str, target: str) -> str:
        bridges = self._domain_map.bridges[target]
        return bridges[_rank(event_id, target, target) % len(bridges)]

    def _relay(self, message: Message, events: Tuple) -> None:
        bridge = message.recipient
        home = self._domain_map.domain(bridge)
        if home is None:
            return
        contexts = {ctx.trace_id: ctx for ctx in (message.trace or ())}
        tracer = getattr(self._network, "tracer", None)
        for target in self._domain_map.domains:
            if target == home:
                continue
            batches: Dict[str, List] = {}
            for event in events:
                if self._egress(event.event_id, home, target) != bridge:
                    continue
                batches.setdefault(self._ingress(event.event_id, target), []).append(event)
            for ingress, batch in batches.items():
                trace: Optional[Tuple[TraceContext, ...]] = None
                if tracer is not None:
                    spans = []
                    for event in batch:
                        ctx = contexts.get(event.event_id)
                        if ctx is None:
                            continue
                        span_id = tracer.emit(
                            BRIDGE_HOP,
                            ctx.trace_id,
                            bridge,
                            parent_id=ctx.parent_span,
                            hops=ctx.hops,
                            domain=home,
                            to_domain=target,
                            peer=ingress,
                        )
                        spans.append(TraceContext(ctx.trace_id, span_id, ctx.hops + 1))
                    trace = tuple(spans) or None
                payload = GossipMessage(events=tuple(batch))
                self._network.send(
                    bridge,
                    ingress,
                    BRIDGE_MESSAGE_KIND,
                    payload=payload,
                    size=payload.size,
                    trace=trace,
                )
                self.relayed += len(batch)
                self._telemetry.increment("bridge.relayed", amount=len(batch), domain=home)

    # --------------------------------------------------------------- ingress

    def _absorb(self, message: Message) -> None:
        node = self._nodes.get(message.recipient)
        absorb = getattr(node, "absorb_events", None)
        events = getattr(message.payload, "events", None)
        if absorb is None or not events:
            return
        absorbed = absorb(message)
        duplicates = len(events) - absorbed
        self.absorbed += absorbed
        self.duplicates += duplicates
        domain = self._domain_map.domain(message.recipient)
        if absorbed:
            self._telemetry.increment("bridge.absorbed", amount=absorbed, domain=domain)
        if duplicates:
            self._telemetry.increment("bridge.duplicate", amount=duplicates, domain=domain)
