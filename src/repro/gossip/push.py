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

:class:`PushGossipNode` is also the *exchange core* of the gossip family.
Every variant's round and message handler is made of the same few moves, and
each exists once, here, with its ledger entry, telemetry and trace contexts
attached:

========================  ===================================================
``_round_partners``       ``SELECTPARTICIPANTS(F)`` on the round's RNG stream
``push_events``           eager payload batch to the round's partners
``advertise``             digest of event ids to the round's partners
``digest_gaps``           the ids of a received digest this node has not seen
``request_pull``          ask a peer for the payloads of some ids
``serve_pull``            answer such a request from whatever is still held
``absorb_payload``        take in a payload message, pushed or pulled
========================  ===================================================

Push composes ``_round_partners`` + ``push_events`` / ``absorb_payload``;
the push-pull, lazy and fair variants (:mod:`~repro.gossip.pushpull`,
:mod:`~repro.gossip.lazy`, :mod:`repro.core.fair_gossip`) are subclasses that
keep only their message kinds and what they decide differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.accounting import WorkLedger
from ..jsonio import suggest
from ..membership.base import MembershipComponent, MembershipProvider
from ..membership.lpbcast import LpbcastMembership, MembershipDigest
from ..pubsub.events import Event
from ..pubsub.filters import Filter, InterestFunction
from ..pubsub.interfaces import DeliveryLog, Participant
from ..sim.engine import Simulator
from ..sim.network import Message, Network
from ..telemetry import Telemetry
from ..tracing.context import TraceContext
from ..tracing.spans import (
    DELIVER,
    DIGEST_ADVERT,
    DUPLICATE,
    PUBLISH,
    PULL_RECOVER,
    RECEIVE,
    RELAY,
)
from .buffers import SELECTION_STRATEGIES, EventBuffer

__all__ = [
    "GossipMessage",
    "DigestMessage",
    "PullRequest",
    "PushGossipNode",
    "GOSSIP_MESSAGE_KIND",
]

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


@dataclass(frozen=True)
class DigestMessage:
    """Advertisement of event ids known by the sender."""

    event_ids: Tuple[str, ...]
    sender_benefit_rate: float = 0.0

    @property
    def size(self) -> int:
        """Abstract size: ids are small next to payloads, four to a unit."""
        return max(1, len(self.event_ids) // 4)


@dataclass(frozen=True)
class PullRequest:
    """Request for the events the receiver was missing."""

    event_ids: Tuple[str, ...]

    @property
    def size(self) -> int:
        return max(1, len(self.event_ids) // 4)


class PushGossipNode(Participant):
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
        Shared :class:`~repro.telemetry.Telemetry` store for the node-tagged
        round/message/delivery counters and the payload-size histogram (the
        live host injects its own store here); a private store when omitted.
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
        super().__init__(node_id, simulator, network, ledger, delivery_log)
        if fanout < 0:
            raise ValueError("fanout must be non-negative")
        if gossip_size <= 0:
            raise ValueError("gossip_size must be positive")
        if round_period <= 0:
            raise ValueError("round_period must be positive")
        if selection_strategy not in SELECTION_STRATEGIES:
            hint = suggest(selection_strategy, SELECTION_STRATEGIES)
            raise ValueError(
                f"unknown selection strategy {selection_strategy!r}{hint}; expected one of {SELECTION_STRATEGIES}"
            )
        self.membership: MembershipComponent = membership_provider(self)
        self.fanout = fanout
        self.gossip_size = gossip_size
        self.round_period = round_period
        self.selection_strategy = selection_strategy
        self.round_jitter = round_jitter
        self.interest = InterestFunction()
        self.buffer = EventBuffer(capacity=buffer_capacity, max_rounds=buffer_max_rounds)
        self.rounds_executed = 0
        self.deliveries_this_window = 0
        #: Partner and event selection draw every round, so the stream is
        #: bound up front.
        self._rng = simulator.rng.stream(f"gossip:{node_id}")
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
        #: Telemetry store (node-tagged instruments).  The instruments are
        #: pre-bound here so the per-round/per-delivery hot paths pay no
        #: facade lookup.
        self.telemetry = telemetry = telemetry if telemetry is not None else Telemetry()
        self._rounds_counter = telemetry.counter("gossip.rounds", node=node_id)
        self._messages_counter = telemetry.counter("gossip.messages_sent", node=node_id)
        self._deliveries_counter = telemetry.counter("gossip.deliveries", node=node_id)
        self._payload_histogram = telemetry.histogram("gossip.payload_events", node=node_id)

    # -------------------------------------------------------------- wiring

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
        partners, rng = self._round_partners()
        if partners:
            self.push_events(
                partners, self.select_events(self.current_gossip_size(), rng), GOSSIP_MESSAGE_KIND
            )

    def select_participants(self, fanout: int, rng) -> List[str]:
        """``SELECTPARTICIPANTS(F)`` — uniform selection from the membership view."""
        return self.membership.select_partners(fanout, rng)

    def select_events(self, count: int, rng) -> List[Event]:
        """``SELECTEVENTS(N in events)``."""
        return self.buffer.select(count, rng, strategy=self.selection_strategy)

    def after_round(self) -> None:
        """Hook for subclasses (adaptive controllers run here)."""

    # ------------------------------------------------- exchange primitives

    def _round_partners(self) -> Tuple[List[str], object]:
        """This round's partners and the round's RNG stream.

        No partners (fanout zero, or an empty view) means the round sends
        nothing; the stream is returned so event selection draws from it
        right after partner selection, as Figure 4 orders them.
        """
        fanout = self.current_fanout()
        if fanout <= 0:
            return [], None
        return self.select_participants(fanout, self._rng), self._rng

    def push_events(self, partners: Sequence[str], events: Sequence[Event], kind: str) -> None:
        """Eagerly push ``events`` (with the lpbcast digest, if any) to every partner."""
        if not events:
            return
        digest = None
        if isinstance(self.membership, LpbcastMembership):
            digest = self.membership.digest_for_gossip()
        self.buffer.mark_forwarded([event.event_id for event in events])
        self._send_payload(partners, events, kind, digest, fanout=len(partners))
        self._messages_counter.increment(len(partners))
        self._payload_histogram.observe(len(events))

    def _send_payload(
        self,
        recipients: Sequence[str],
        events: Sequence[Event],
        kind: str,
        membership_digest: Optional[MembershipDigest] = None,
        **span_details,
    ) -> None:
        """One :class:`GossipMessage` to every recipient, traced and charged.

        One ``relay`` span per traced event covers the whole batch — every
        recipient shares it as parent — and the sender's contribution grows
        by what was actually put on the wire.
        """
        message = GossipMessage(tuple(events), self.benefit_rate(), membership_digest)
        trace = self._trace_contexts((event.event_id for event in events), RELAY, **span_details)
        size = message.size
        for recipient in recipients:
            self.send(recipient, kind, message, size, trace)
        self.ledger.record_gossip_send(
            self.node_id,
            messages=len(recipients),
            events=len(events) * len(recipients),
            size=size * len(recipients),
        )

    def advertise(self, partners: Sequence[str], event_ids: Sequence[str], kind: str) -> None:
        """Send a digest of ``event_ids`` to every partner (ids only, no payload)."""
        if not event_ids:
            return
        digest = DigestMessage(tuple(event_ids), self.benefit_rate())
        trace = self._trace_contexts(event_ids, DIGEST_ADVERT, fanout=len(partners))
        size = digest.size
        for partner in partners:
            self.send(partner, kind, digest, size, trace)
        self.ledger.record_gossip_send(
            self.node_id, messages=len(partners), events=0, size=size * len(partners)
        )

    def digest_gaps(self, message: Message) -> List[str]:
        """The ids a received digest advertises that this node has never seen."""
        digest: DigestMessage = message.payload
        self.observe_peer_benefit(message.sender, digest.sender_benefit_rate)
        # has_seen, inlined as in _absorb_event: most advertised ids are known.
        numbers, seen = self.delivery_log.event_numbers, self._seen
        return [
            event_id
            for event_id in digest.event_ids
            if (number := numbers.get(event_id)) is None or number >= len(seen) or not seen[number]
        ]

    def request_pull(self, target: str, event_ids: Sequence[str], kind: str) -> None:
        """Ask ``target`` for the payloads of ``event_ids``."""
        request = PullRequest(tuple(event_ids))
        self.send(target, kind, request, request.size)

    def serve_pull(self, message: Message, reply_kind: str) -> bool:
        """Answer a pull request with what this node still holds; False if nothing.

        The reply's spans parent on *this* node's own trace state — the
        requester may have learned the id from a third party's digest, but
        the payload (and therefore the infection edge) comes from here.
        """
        events = [
            event
            for event in map(self._event_payload, message.payload.event_ids)
            if event is not None
        ]
        if events:
            self._send_payload(
                [message.sender], events, reply_kind, via="pull", peer=message.sender
            )
        return bool(events)

    def _event_payload(self, event_id: str) -> Optional[Event]:
        """The full event if this node still holds it."""
        return self.buffer.get(event_id)

    def absorb_payload(self, message: Message, recovered: bool = False) -> int:
        """Take in a payload message; returns how many of its events were new.

        ``recovered`` marks a pull reply (first sights become ``pull-recover``
        spans instead of ``receive``); everything else is the same for an
        eager push and a recovered one.
        """
        payload: GossipMessage = message.payload
        if payload.membership_digest is not None and isinstance(
            self.membership, LpbcastMembership
        ):
            self.membership.absorb_digest(payload.membership_digest)
        self.observe_peer_benefit(message.sender, payload.sender_benefit_rate)
        new_events = self.absorb_events(message, recovered)
        if self.forward_audit is not None and payload.events:
            self.forward_audit.observe(message.sender, new_events, len(payload.events))
        return new_events

    def absorb_events(self, message: Message, recovered: bool = False) -> int:
        """Lines 12–20 of Figure 4 for every carried event; returns the first sights.

        Each event meets the trace context the sender propagated for it.
        Most carried events are repeats (push gossip re-forwards an event
        for ``buffer_max_rounds`` rounds), so the seen check runs here, one
        event at a time, and only a first sight costs an
        :meth:`_absorb_event` call; a traced repeat emits its ``duplicate``
        span.  An id carried twice is a first sight once: the second copy
        meets the byte the first one set.  Bridge ingress enters here: a
        relay carries events but no peer benefit rate or membership digest
        worth observing.
        """
        sender = message.sender
        contexts = {ctx.trace_id: ctx for ctx in message.trace} if message.trace else None
        # has_seen, inlined: the method call would cost as much as the check.
        numbers, seen = self.delivery_log.event_numbers, self._seen
        new_events = 0
        for event in message.payload.events:
            event_id = event.event_id
            trace_ctx = contexts.get(event_id) if contexts else None
            number = numbers.get(event_id)
            if number is not None and number < len(seen) and seen[number]:
                if trace_ctx is not None and self.tracer is not None:
                    self.tracer.emit(
                        DUPLICATE,
                        event_id,
                        self.node_id,
                        parent_id=trace_ctx.parent_span,
                        hops=trace_ctx.hops,
                        peer=sender,
                    )
                continue
            self._absorb_event(event, sender, trace_ctx, recovered)
            new_events += 1
        return new_events

    # ------------------------------------------------------------ receiving

    def on_message(self, message: Message) -> None:
        if self.membership.handle(message):
            return
        if message.kind == GOSSIP_MESSAGE_KIND:
            self.absorb_payload(message)

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
        span emission, never protocol decisions.  Received payloads drop
        their repeats in :meth:`absorb_events` before calling this.
        """
        if not self.mark_seen(event.event_id):
            return False
        self._trace_first_sight(event, from_peer, trace_ctx, recovered)
        self.buffer.add(event)
        if self.is_interested(event):
            self.deliver(event)
        self._on_first_sight(event)
        return True

    def _on_first_sight(self, event: Event) -> None:
        """Hook: variant state for a newly absorbed event (lazy push keeps it)."""

    def deliver(self, event: Event) -> bool:
        """``DELIVER(e)`` plus the node's own benefit window, counter and span."""
        if not super().deliver(event):
            return False
        self.deliveries_this_window += 1
        self._deliveries_counter.increment()
        if self.tracer is not None:
            state = self._trace_state.get(event.event_id)
            if state is not None:
                self.tracer.emit(
                    DELIVER, event.event_id, self.node_id, parent_id=state[0], hops=state[1]
                )
        return True

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
        self, event_ids: Iterable[str], span_kind: str, **details
    ) -> Optional[Tuple[TraceContext, ...]]:
        """Sender-side spans + contexts for the traced subset of ``event_ids``.

        One span per (event, batch) — every recipient of the batch shares it
        as parent — which bounds span volume by rounds, not by
        ``rounds × fanout``.  Returns ``None`` when nothing is traced so
        untraced messages carry no trace field at all.
        """
        if self.tracer is None or not self._trace_state:
            return None
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

