"""The basic push gossip dissemination algorithm (Figure 4 of the paper).

Every ``round_period`` time units each process:

1. selects ``F`` communication partners from its membership component
   (``SELECTPARTICIPANTS(F)``),
2. selects at most ``N`` events from its buffer (``SELECTEVENTS(N)``),
3. sends each partner a gossip message carrying those events.

On receiving a gossip message, events not seen before are added to the
buffer and — if the local interest function matches (``ISINTERESTED(e)``) —
delivered.  The protocol is *interest-oblivious in forwarding* and
*interest-aware only in delivery*, which is exactly why the paper calls
classic gossip unfair: a node with no interest in anything still forwards as
much as everyone else.

Accounting: every gossip message sent adds to the sender's contribution,
every membership message adds to its infrastructure contribution, and every
delivery adds to the receiver's benefit (see
:class:`~repro.core.accounting.WorkLedger`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.accounting import WorkLedger
from ..membership.base import MembershipComponent, MembershipProvider
from ..membership.lpbcast import LpbcastMembership, MembershipDigest
from ..pubsub.events import Event
from ..pubsub.filters import Filter, InterestFunction
from ..pubsub.interfaces import DeliveryCallback, DeliveryLog
from ..sim.engine import Simulator
from ..sim.network import Message, Network
from ..sim.node import Process
from ..telemetry import Telemetry
from ..tracing.context import TraceContext
from ..tracing.spans import DELIVER, DUPLICATE, PUBLISH, PULL_RECOVER, RECEIVE, RELAY
from .buffers import EventBuffer

__all__ = ["GossipMessage", "PushGossipNode", "GOSSIP_MESSAGE_KIND"]

GOSSIP_MESSAGE_KIND = "gossip.push"


@dataclass(frozen=True)
class GossipMessage:
    """Payload of one push gossip message.

    Attributes
    ----------
    events:
        The events selected by ``SELECTEVENTS(N)``.
    sender_benefit_rate:
        The sender's recent deliveries-per-round estimate, piggybacked so
        receivers can estimate the system-wide benefit distribution without
        extra messages (used by the adaptive fair protocol; the classic
        protocol simply ignores it).
    membership_digest:
        Optional lpbcast-style digest when that membership flavour is used.
    """

    events: Tuple[Event, ...]
    sender_benefit_rate: float = 0.0
    membership_digest: Optional[MembershipDigest] = None

    @property
    def size(self) -> int:
        """Abstract size: total payload size of the carried events."""
        return sum(event.size for event in self.events) or 1


class PushGossipNode(Process):
    """One participant running the Figure 4 push gossip algorithm.

    Parameters
    ----------
    node_id, simulator, network:
        Standard process wiring.
    membership_provider:
        Factory building this node's membership component.
    ledger:
        Shared work/benefit ledger (contribution and benefit recording).
    delivery_log:
        Shared log of deliveries (reliability and latency measurements).
    fanout:
        The static fanout ``F`` of Figure 4.
    gossip_size:
        The static gossip message size ``N`` of Figure 4 (events per message).
    round_period:
        Gossip round length in simulated time units.
    selection_strategy:
        ``SELECTEVENTS`` strategy (see :class:`~repro.gossip.buffers.EventBuffer`).
    buffer_capacity / buffer_max_rounds:
        Buffer sizing.
    round_jitter:
        Uniform jitter added to each round to avoid lock-step rounds.
    telemetry:
        Optional shared :class:`~repro.telemetry.Telemetry` store; when set
        the node records node-tagged round/message/delivery counters and a
        payload-size histogram (the live host injects its own store here).
    """

    def __init__(
        self,
        node_id: str,
        simulator: Simulator,
        network: Network,
        membership_provider: MembershipProvider,
        ledger: WorkLedger,
        delivery_log: DeliveryLog,
        fanout: int = 3,
        gossip_size: int = 8,
        round_period: float = 1.0,
        selection_strategy: str = "newest",
        buffer_capacity: int = 500,
        buffer_max_rounds: int = 20,
        round_jitter: float = 0.05,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        super().__init__(node_id, simulator, network)
        if fanout < 0:
            raise ValueError("fanout must be non-negative")
        if gossip_size <= 0:
            raise ValueError("gossip_size must be positive")
        if round_period <= 0:
            raise ValueError("round_period must be positive")
        self.membership: MembershipComponent = membership_provider(self)
        self.ledger = ledger
        self.delivery_log = delivery_log
        self.fanout = fanout
        self.gossip_size = gossip_size
        self.round_period = round_period
        self.selection_strategy = selection_strategy
        self.round_jitter = round_jitter
        self.interest = InterestFunction()
        self.buffer = EventBuffer(capacity=buffer_capacity, max_rounds=buffer_max_rounds)
        self.seen_event_ids: set = set()
        self.delivered_event_ids: set = set()
        self.rounds_executed = 0
        self.deliveries_this_window = 0
        self._callbacks: List[DeliveryCallback] = []
        #: Optional audit sink (see :mod:`repro.core.bias`); receivers report
        #: how useful each sender's forwards were, which the bias detector
        #: uses to spot peers inflating their contribution with stale events.
        self.forward_audit = None
        #: Optional shared :class:`~repro.tracing.Tracer` (attached by the
        #: runner/host on opted-in runs, like the telemetry store).  The hot
        #: paths pay a single ``is not None`` check when tracing is off.
        self.tracer = None
        #: event id → (local span id, hops) for events this node traces; the
        #: span is the node's own publish/receive span, which its relays and
        #: deliveries parent on.
        self._trace_state: Dict[str, Tuple[int, int]] = {}
        #: Optional shared telemetry store (node-tagged instruments).  The
        #: instruments are pre-bound here so the per-round/per-delivery hot
        #: paths pay one None check, not a facade lookup.
        self.telemetry = telemetry
        if telemetry is not None:
            self._rounds_counter = telemetry.counter("gossip.rounds", node=node_id)
            self._messages_counter = telemetry.counter("gossip.messages_sent", node=node_id)
            self._deliveries_counter = telemetry.counter("gossip.deliveries", node=node_id)
            self._payload_histogram = telemetry.histogram("gossip.payload_events", node=node_id)
        else:
            self._rounds_counter = None
            self._messages_counter = None
            self._deliveries_counter = None
            self._payload_histogram = None
        self.ledger.ensure_node(node_id)

    # -------------------------------------------------------------- wiring

    def add_delivery_callback(self, callback: DeliveryCallback) -> None:
        """Register an application callback invoked on every delivery."""
        self._callbacks.append(callback)

    def bootstrap(self, seeds: Sequence[str]) -> None:
        """Seed the membership component with initial contacts."""
        self.membership.bootstrap(seeds)

    # ----------------------------------------------------------- lifecycle

    def on_start(self) -> None:
        self.add_timer(
            "gossip-round",
            self.round_period,
            initial_delay=self.round_period,
            jitter=self.round_jitter,
        )

    def on_crash(self) -> None:
        self.ledger.record_crash(self.node_id)

    # -------------------------------------------------------- subscription

    def subscribe(self, subscription_filter: Filter) -> bool:
        """Add a filter to the local interest function."""
        added = self.interest.add(subscription_filter)
        if added:
            self.ledger.record_subscribe(self.node_id)
        return added

    def unsubscribe(self, subscription_filter: Filter) -> bool:
        """Remove a filter from the local interest function."""
        removed = self.interest.remove(subscription_filter)
        if removed:
            self.ledger.record_unsubscribe(self.node_id)
        return removed

    def is_interested(self, event: Event) -> bool:
        """The paper's ``ISINTERESTED(e)``."""
        return self.interest.is_interested(event)

    # ----------------------------------------------------------- publishing

    def publish(self, event: Event) -> None:
        """Insert a locally published event; it spreads on subsequent rounds."""
        if not self.alive:
            return
        self.ledger.record_publish(self.node_id)
        self._absorb_event(event)

    # ----------------------------------------------------------- the round

    def on_timer(self, name: str) -> None:
        if name != "gossip-round":
            return
        self.rounds_executed += 1
        if self._rounds_counter is not None:
            self._rounds_counter.increment()
        self.buffer.start_round()
        self.membership.on_round()
        self.execute_gossip_round()
        self.after_round()

    def current_fanout(self) -> int:
        """Fanout to use this round; the fair protocol overrides this."""
        return self.fanout

    def current_gossip_size(self) -> int:
        """Gossip message size to use this round; the fair protocol overrides this."""
        return self.gossip_size

    def benefit_rate(self) -> float:
        """Recent deliveries per round, piggybacked on outgoing messages."""
        if self.rounds_executed == 0:
            return 0.0
        return self.deliveries_this_window / max(self.rounds_executed, 1)

    def execute_gossip_round(self) -> None:
        """Lines 4–10 of Figure 4."""
        fanout = self.current_fanout()
        gossip_size = self.current_gossip_size()
        if fanout <= 0:
            return
        rng = self.simulator.rng.stream(f"gossip:{self.node_id}")
        neighbors = self.select_participants(fanout, rng)
        if not neighbors:
            return
        events = self.select_events(gossip_size, rng)
        if not events:
            return
        digest = None
        if isinstance(self.membership, LpbcastMembership):
            digest = self.membership.digest_for_gossip()
        message = GossipMessage(
            events=tuple(events),
            sender_benefit_rate=self.benefit_rate(),
            membership_digest=digest,
        )
        self.buffer.mark_forwarded([event.event_id for event in events])
        trace = self._trace_contexts(events, RELAY, fanout=len(neighbors))
        size = message.size
        for neighbor in neighbors:
            self.send(neighbor, GOSSIP_MESSAGE_KIND, message, size, trace)
        self.ledger.record_gossip_send(
            self.node_id,
            messages=len(neighbors),
            events=len(events) * len(neighbors),
            size=size * len(neighbors),
        )
        if self._messages_counter is not None:
            self._messages_counter.increment(len(neighbors))
            self._payload_histogram.observe(len(events))

    def select_participants(self, fanout: int, rng) -> List[str]:
        """``SELECTPARTICIPANTS(F)`` — uniform selection from the membership view."""
        return self.membership.select_partners(fanout, rng)

    def select_events(self, count: int, rng) -> List[Event]:
        """``SELECTEVENTS(N in events)``."""
        return self.buffer.select(count, rng, strategy=self.selection_strategy)

    def after_round(self) -> None:
        """Hook for subclasses (adaptive controllers run here)."""

    # ------------------------------------------------------------ receiving

    def on_message(self, message: Message) -> None:
        if self.membership.handle(message):
            return
        if message.kind == GOSSIP_MESSAGE_KIND:
            self._handle_gossip(message)

    def _handle_gossip(self, message: Message) -> None:
        payload: GossipMessage = message.payload
        if payload.membership_digest is not None and isinstance(
            self.membership, LpbcastMembership
        ):
            self.membership.absorb_digest(payload.membership_digest)
        self.observe_peer_benefit(message.sender, payload.sender_benefit_rate)
        contexts = self._contexts_by_event(message) if message.trace else None
        new_events = 0
        for event in payload.events:
            if self._absorb_event(
                event,
                from_peer=message.sender,
                trace_ctx=None if contexts is None else contexts.get(event.event_id),
            ):
                new_events += 1
        if self.forward_audit is not None and payload.events:
            self.forward_audit.observe(message.sender, new_events, len(payload.events))

    def observe_peer_benefit(self, peer_id: str, benefit_rate: float) -> None:
        """Hook used by the adaptive fair protocol to track peer benefits."""

    def _absorb_event(
        self,
        event: Event,
        from_peer: Optional[str] = None,
        trace_ctx: Optional[TraceContext] = None,
        recovered: bool = False,
    ) -> bool:
        """Lines 12–20 of Figure 4; returns True if the event was new.

        ``trace_ctx`` is the sender's propagated trace context (if the event
        is part of a sampled trace) and ``recovered`` marks first sights that
        arrived via a pull reply rather than an eager push; both only feed
        span emission, never protocol decisions.
        """
        if event.event_id in self.seen_event_ids:
            if trace_ctx is not None and self.tracer is not None:
                self.tracer.emit(
                    DUPLICATE,
                    event.event_id,
                    self.node_id,
                    parent_id=trace_ctx.parent_span,
                    hops=trace_ctx.hops,
                    peer=from_peer,
                )
            return False
        self.seen_event_ids.add(event.event_id)
        self._trace_first_sight(event, from_peer, trace_ctx, recovered)
        self.buffer.add(event, received_at=self.simulator.now)
        if self.is_interested(event):
            self.deliver(event)
        return True

    def deliver(self, event: Event) -> None:
        """``DELIVER(e)``: record the delivery and notify application callbacks."""
        if event.event_id in self.delivered_event_ids:
            return
        self.delivered_event_ids.add(event.event_id)
        self.deliveries_this_window += 1
        if self._deliveries_counter is not None:
            self._deliveries_counter.increment()
        if self.tracer is not None:
            state = self._trace_state.get(event.event_id)
            if state is not None:
                self.tracer.emit(
                    DELIVER, event.event_id, self.node_id, parent_id=state[0], hops=state[1]
                )
        self.ledger.record_delivery(self.node_id)
        self.delivery_log.record(self.node_id, event, delivered_at=self.simulator.now)
        for callback in self._callbacks:
            callback(self.node_id, event)

    # -------------------------------------------------------------- tracing

    def _trace_first_sight(
        self,
        event: Event,
        from_peer: Optional[str],
        trace_ctx: Optional[TraceContext],
        recovered: bool,
    ) -> None:
        """Emit the publish/receive/pull-recover span for a newly seen event.

        Sampling is head-based: only the publisher consults the sampler
        (``from_peer is None``); receivers trace exactly the events whose
        context was propagated to them, so a sampled trace is always
        complete and an unsampled one is free everywhere.
        """
        if self.tracer is None:
            return
        if from_peer is None:
            if self.tracer.sampled(event.event_id):
                span = self.tracer.emit(PUBLISH, event.event_id, self.node_id)
                self._trace_state[event.event_id] = (span, 0)
        elif trace_ctx is not None:
            span = self.tracer.emit(
                PULL_RECOVER if recovered else RECEIVE,
                event.event_id,
                self.node_id,
                parent_id=trace_ctx.parent_span,
                hops=trace_ctx.hops,
                peer=from_peer,
            )
            self._trace_state[event.event_id] = (span, trace_ctx.hops)

    def _trace_contexts(
        self, events: Sequence[Event], span_kind: str, **details
    ) -> Optional[Tuple[TraceContext, ...]]:
        """Relay-side spans + contexts for the traced subset of ``events``.

        One span per (event, round batch) — every recipient of the batch
        shares it as parent — which bounds span volume by rounds, not by
        ``rounds × fanout``.  Returns ``None`` when nothing is traced so
        untraced messages carry no trace field at all.
        """
        if self.tracer is None or not self._trace_state:
            return None
        return self._trace_contexts_for_ids(
            [event.event_id for event in events], span_kind, **details
        )

    def _trace_contexts_for_ids(
        self, event_ids: Sequence[str], span_kind: str, **details
    ) -> Optional[Tuple[TraceContext, ...]]:
        """Id-keyed core of :meth:`_trace_contexts` (digests carry ids only)."""
        contexts: List[TraceContext] = []
        for event_id in event_ids:
            state = self._trace_state.get(event_id)
            if state is None:
                continue
            span = self.tracer.emit(
                span_kind,
                event_id,
                self.node_id,
                parent_id=state[0],
                hops=state[1],
                **details,
            )
            contexts.append(TraceContext(event_id, span, state[1] + 1))
        return tuple(contexts) if contexts else None

    @staticmethod
    def _contexts_by_event(message: Message) -> Dict[str, TraceContext]:
        """The message's trace contexts keyed by event id (empty when untraced)."""
        if not message.trace:
            return {}
        return {ctx.trace_id: ctx for ctx in message.trace}

    # ----------------------------------------------------------- accounting

    def send(
        self,
        recipient: str,
        kind: str,
        payload: object = None,
        size: int = 1,
        trace: object = None,
    ):
        """Send a message, charging infrastructure messages to the ledger."""
        message = super().send(recipient, kind, payload, size, trace)
        if message is not None and kind.startswith(MembershipComponent.MESSAGE_PREFIX):
            self.ledger.record_infrastructure(self.node_id)
        return message
