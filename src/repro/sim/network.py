"""Message-passing network model, and the fabric both engines share.

The network sits between processes and the event engine.  Sending a message
costs the sender one "send" (counted towards its contribution by the
accounting layer), takes the link latency :data:`LINK_LATENCY`, and may be
lost with the network's Bernoulli ``loss_rate``.  Partitions can be
installed to cut connectivity between groups of nodes, which is how the
failure injector models transient network splits; per-link latency and loss
differences come from the topology's geo link profile and the fault layer's
perturbation, both on the shared fabric.

The model is intentionally simple — one constant latency and independent
per-message loss — because the paper's claims are about message *counts*
and *delivery*, not about queueing effects.

Messages sent for the same arrival instant with nothing queued in between
share one engine event (see :meth:`Network.send`); delivery order is that of
one event per message.

:class:`FaultInjectionSurface` is the one fabric under both engines;
:class:`Network` adds only what the discrete-event engine differs in — the
link latency, the loss rate and a ``send`` that schedules the delivery on
the engine.  The live :class:`~repro.runtime.network.RuntimeNetwork` adds
only the wire.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Optional, Set, Tuple

from .engine import Simulator

__all__ = [
    "LINK_LATENCY",
    "Message",
    "FaultInjectionSurface",
    "Network",
    "NetworkStats",
    "validate_link_perturbation",
]

#: Time units every simulated message takes on a link before the geo link
#: profile's and the perturbation's extra latency.
LINK_LATENCY = 0.1


def validate_link_perturbation(
    extra_latency: float, loss_rate: float, rng: Optional[random.Random]
) -> None:
    """Validate one link degradation triple (shared by every actuator).

    Both the global :meth:`FaultInjectionSurface.set_perturbation` and the
    per-link :class:`~repro.topology.geo.GeoLinkProfile` route through this
    one check, so "what is a legal latency/loss pair" has a single answer.
    NaN lies outside both ranges.
    """
    if not extra_latency >= 0:
        raise ValueError("extra_latency must be non-negative")
    if not 0.0 <= loss_rate <= 1.0:
        raise ValueError("loss_rate must be within [0, 1]")
    if loss_rate > 0 and rng is None:
        raise ValueError("loss perturbation requires an rng stream")


class FaultInjectionSurface:
    """The message fabric shared by both engines.

    The fault layer's contract is that one
    :class:`~repro.faults.plan.FaultPlan` means the same physics on either
    substrate, so everything that is not the substrate itself lives here
    once and is inherited by :class:`Network` (discrete-event) and
    :class:`~repro.runtime.network.RuntimeNetwork` (live): the node table,
    the counters, the delivery hooks, the partition map, link-level
    latency/loss perturbation with its validation, and the hand-over of an
    arrived message to its recipient.  Subclasses call :meth:`_init_fabric`
    in ``__init__`` and write ``send`` / ``_deliver`` over
    ``_same_partition``, :meth:`_link_fate`, :meth:`_drop` and
    :meth:`_hand_over`.
    """

    def _init_fabric(self, simulator) -> None:
        #: The engine — or live scheduler — whose clock the fabric stamps with.
        self.simulator = simulator
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        self._alive: Set[str] = set()
        self.stats = NetworkStats()
        self._delivery_hooks: list[Callable[[Message, float], None]] = []
        #: Optional :class:`~repro.tracing.tracer.Tracer` (duck-typed so the
        #: sim package stays import-independent of the tracing package);
        #: when set, dropped traced frames emit ``drop`` spans.
        self.tracer = None
        self._partitions: Dict[str, int] = {}
        self._perturb_latency = 0.0
        self._perturb_loss = 0.0
        self._perturb_rng: Optional[random.Random] = None
        self._link_profile = None
        #: No partition map, perturbation or link profile is installed, so a
        #: send may skip ``_same_partition`` and ``_link_fate``; kept by
        #: :meth:`_note_faults`, which every fault setter calls.
        self._faults_idle = True

    # ----------------------------------------------------------- node table

    def register(self, node_id: str, handler: Callable[[Message], None]) -> None:
        """Attach a process; it becomes reachable and alive."""
        self._handlers[node_id] = handler
        self._alive.add(node_id)

    def unregister(self, node_id: str) -> None:
        """Detach a process completely (used when a node leaves for good)."""
        self._handlers.pop(node_id, None)
        self._alive.discard(node_id)
        self._partitions.pop(node_id, None)

    def set_alive(self, node_id: str, alive: bool) -> None:
        """Mark a registered process up or down without unregistering it."""
        if node_id not in self._handlers:
            raise KeyError(f"unknown node {node_id!r}")
        if alive:
            self._alive.add(node_id)
        else:
            self._alive.discard(node_id)

    def known_nodes(self) -> Set[str]:
        """All registered node identifiers (alive or not)."""
        return set(self._handlers)

    def alive_nodes(self) -> Set[str]:
        """Identifiers of nodes currently alive."""
        return set(self._alive)

    def add_delivery_hook(self, hook: Callable[[Message, float], None]) -> None:
        """Register a callback invoked as ``hook(message, delivered_at)``."""
        self._delivery_hooks.append(hook)

    # ------------------------------------------------------- drops, delivery

    def _drop(self, message: Message, reason: str) -> None:
        """Count a frame that will not arrive (``"dead"``, ``"partition"``
        or ``"lost"``) and emit its ``drop`` span."""
        stats = self.stats
        if reason == "lost":
            stats.lost += 1
        elif reason == "dead":
            stats.dropped_dead += 1
        else:
            stats.dropped_partition += 1
        self._trace_drop(message, reason)

    def _trace_drop(self, message: Message, reason: str) -> None:
        if message.trace and self.tracer is not None:
            self.tracer.record_drop(message, reason)

    def _hand_over(self, message: Message) -> None:
        """Give an arrived message to its recipient, if it can take it."""
        handler = self._handlers.get(message.recipient)
        if handler is None or message.recipient not in self._alive:
            self._drop(message, "dead")
            return
        self.stats.delivered += 1
        hooks = self._delivery_hooks
        if hooks:
            now = self.simulator.now
            for hook in hooks:
                hook(message, now)
        handler(message)

    # ----------------------------------------------------------- partitions

    def set_partition(self, assignment: Dict[str, int]) -> None:
        """Install a partition map; nodes in different groups cannot talk.

        Nodes absent from the map are treated as belonging to group 0.
        """
        self._partitions = dict(assignment)
        self._note_faults()

    def clear_partition(self) -> None:
        """Heal all partitions."""
        self._partitions = {}
        self._note_faults()

    def _same_partition(self, a: str, b: str) -> bool:
        if not self._partitions:
            return True
        return self._partitions.get(a, 0) == self._partitions.get(b, 0)

    # --------------------------------------------------------- perturbation

    def set_perturbation(
        self,
        extra_latency: float = 0.0,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Degrade every link: add latency and/or extra Bernoulli loss.

        Used by the fault layer to model congested or flaky periods.  Loss
        draws come from the caller-supplied ``rng`` (a named fault stream),
        never from the streams protocol code uses, so installing a
        perturbation leaves every pre-existing draw sequence untouched —
        and an inactive perturbation draws nothing at all.  Latency is in
        time units in both worlds (the live scheduler's wall clock maps
        them onto real seconds).
        """
        validate_link_perturbation(extra_latency, loss_rate, rng)
        self._perturb_latency = float(extra_latency)
        self._perturb_loss = float(loss_rate)
        self._perturb_rng = rng
        self._note_faults()

    def clear_perturbation(self) -> None:
        """Restore the unperturbed link behaviour.

        Leaves any installed link profile (a run's *geography*) in place:
        the fault controller clears perturbations on teardown, and that
        must not strip the topology's physics.
        """
        self._perturb_latency = 0.0
        self._perturb_loss = 0.0
        self._perturb_rng = None
        self._note_faults()

    # ------------------------------------------------------- per-link profile

    def set_link_profile(self, profile) -> None:
        """Install per-link latency/loss effects (the topology geo matrix).

        ``profile`` is duck-typed: ``effects(sender, recipient)`` returning
        ``(extra_latency, loss_rate)`` plus an ``rng`` attribute for loss
        draws (see :class:`~repro.topology.geo.GeoLinkProfile`, which runs
        every resolved link through :func:`validate_link_perturbation` —
        the same code path the global actuator uses).  Unlike the global
        perturbation this is installed at build time and survives fault
        windows; ``None`` while off, so the flat layout costs nothing.
        """
        self._link_profile = profile
        self._note_faults()

    def _note_faults(self) -> None:
        perturbed = self._perturb_loss or self._perturb_latency
        self._faults_idle = not (self._partitions or perturbed or self._link_profile is not None)

    def _link_fate(self, message: Message) -> Optional[float]:
        """What the installed faults and geography do to one frame.

        Perturbation loss first, then the link profile's loss, each drawn
        from its own stream (an inactive one draws nothing); a lost frame is
        counted and ``None`` returned, otherwise the extra latency in time
        units.
        """
        if self._perturb_loss > 0.0 and self._perturb_rng.random() < self._perturb_loss:
            self._drop(message, "lost")
            return None
        extra_latency = self._perturb_latency
        if self._link_profile is not None:
            link_latency, link_loss = self._link_profile.effects(
                message.sender, message.recipient
            )
            if link_loss > 0.0 and self._link_profile.rng.random() < link_loss:
                self._drop(message, "lost")
                return None
            extra_latency += link_latency
        return extra_latency


@dataclass(slots=True)
class Message:
    """A message in flight between two processes.

    Attributes
    ----------
    sender / recipient:
        Node identifiers.
    kind:
        Protocol-level message type (``"gossip"``, ``"subscribe"``,
        ``"shuffle"`` ...), used by traces and by per-kind statistics.
    payload:
        Arbitrary protocol data; the network never inspects it.
    size:
        Abstract message size (for example the number of events carried in a
        gossip message); used by the fairness accounting to weight
        contribution by payload, per Figure 3 of the paper.
    sent_at:
        Simulated time at which the message was handed to the network.
    trace:
        Optional tuple of :class:`~repro.tracing.context.TraceContext`
        entries, one per traced event carried by the message.  ``None`` on
        every untraced message (the overwhelming default), so the field
        costs nothing unless a run opted into dissemination tracing.
    """

    sender: str
    recipient: str
    kind: str
    payload: Any = None
    size: int = 1
    sent_at: float = 0.0
    trace: Optional[Tuple] = None


@dataclass
class NetworkStats:
    """Aggregate counters maintained by the network."""

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    dropped_dead: int = 0
    dropped_partition: int = 0
    bytes_sent: int = 0
    sent_by_kind: Dict[str, int] = field(default_factory=dict)

    def record_sent(self, message: Message) -> None:
        self.sent += 1
        self.bytes_sent += message.size
        self.sent_by_kind[message.kind] = self.sent_by_kind.get(message.kind, 0) + 1


class Network(FaultInjectionSurface):
    """Connects registered processes through the simulator's event queue.

    Parameters
    ----------
    simulator:
        The discrete-event engine that drives deliveries.
    loss_rate:
        Probability in ``[0, 1]`` that a message is lost, drawn per message
        from the ``"network"`` stream; a lossless network draws nothing.
    """

    def __init__(self, simulator: Simulator, loss_rate: float = 0.0) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError("loss_rate must be within [0, 1]")
        #: Time units each message takes before any link extra latency.
        self.latency = LINK_LATENCY
        self.loss_rate = float(loss_rate)
        self._loss_rng = simulator.rng.stream("network") if self.loss_rate > 0.0 else None
        self._init_fabric(simulator)
        #: The open delivery batch and its engine event (closed once it fires).
        self._batch: Optional[list] = None
        self._batch_event = None

    def send(
        self,
        sender: str,
        recipient: str,
        kind: str,
        payload: Any = None,
        size: int = 1,
        trace: Optional[Tuple] = None,
    ) -> Message:
        """Send a message; delivery (if any) is scheduled on the engine.

        The message object is returned so callers (for example the trace
        recorder) can correlate sends with deliveries.  ``trace`` carries
        the sender's trace contexts (one per traced event on the message);
        it does not affect physics — drops and latency are decided exactly
        as for an untraced message.

        A surviving message joins the open delivery batch if it arrives at the
        batch's instant and the engine queued nothing since the batch's event;
        else it opens a batch with an event of its own.  Either way it is
        delivered where an event of its own would have delivered it.
        """
        simulator = self.simulator
        now = simulator.clock._now
        message = Message(sender, recipient, kind, payload, size, now, trace)
        self.stats.record_sent(message)

        if recipient not in self._handlers:
            self._drop(message, "dead")
            return message
        faults = not self._faults_idle
        if faults and not self._same_partition(sender, recipient):
            self._drop(message, "partition")
            return message
        if self.loss_rate > 0.0 and self._loss_rng.random() < self.loss_rate:
            self._drop(message, "lost")
            return message
        extra_latency = 0.0
        if faults:
            extra_latency = self._link_fate(message)
            if extra_latency is None:
                return message
        latency = self.latency + extra_latency
        event, at = self._batch_event, now + latency
        if self._batch is not None and simulator._last is event and event.timestamp == at:
            self._batch.append(message)
        else:
            self._batch = batch = [message]
            self._batch_event = simulator.schedule_at(at, partial(self._deliver_batch, batch), "deliver:" + kind)
        return message

    def _deliver_batch(self, batch: list) -> None:
        if self._batch is batch:
            self._batch = None
        for message in batch:
            self._deliver(message)

    # Defined here, not only in the fabric: perfbench spans both by
    # patching ``Network.__dict__``.
    def _trace_drop(self, message: Message, reason: str) -> None:
        super()._trace_drop(message, reason)

    def _deliver(self, message: Message) -> None:
        self._hand_over(message)
