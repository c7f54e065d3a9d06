"""Live message fabric: the shared fabric over a wire.

:class:`RuntimeNetwork` is the same
:class:`~repro.sim.network.FaultInjectionSurface` the simulator's
:class:`~repro.sim.network.Network` is built on — node table, stats,
delivery hooks, drop accounting, partition map, perturbation and link
profile, and the hand-over to the recipient all come from there, which is
what lets one :class:`~repro.faults.plan.FaultPlan` run unmodified on either
substrate.  What it keeps is what differs: instead of scheduling a delivery
on the event queue, ``send`` encodes the message with the wire codec and
hands the frame to a :class:`~repro.runtime.transport.Transport`.  Latency
is whatever the transport and the kernel provide; loss is whatever the wire
loses — the simulator's constant link latency and ``loss_rate`` have no live
counterpart by design.  A fault's extra latency holds the encoded frame back on the
runtime's own scheduler.

Frames arriving from remote peers are checked against the partition map
again (see :meth:`RuntimeNetwork._deliver`).  Control frames (kinds starting
with ``runtime.``) bypass fault injection and are routed to the host's
control handler instead of a node, which is how remote publish and
subscription exchanges enter a live cluster.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional, Tuple

from ..sim.network import FaultInjectionSurface, Message
from .scheduler import AsyncScheduler
from .transport import Transport
from .wire import WireError, decode_message, encode_message

__all__ = ["RuntimeNetwork", "CONTROL_PREFIX"]

#: Message kinds owned by the runtime itself rather than a protocol node.
CONTROL_PREFIX = "runtime."


class RuntimeNetwork(FaultInjectionSurface):
    """Connects live processes through a transport.

    Parameters
    ----------
    scheduler:
        Supplies ``now`` for send timestamps (the ``simulator`` the hosted
        processes see).
    transport:
        Frame carrier; the network registers itself as its receiver.
    """

    def __init__(self, scheduler: AsyncScheduler, transport: Transport) -> None:
        #: The frame carrier underneath this network.
        self.transport = transport
        self.decode_errors = 0
        self._init_fabric(scheduler)
        #: Installed by the host; receives decoded ``runtime.*`` messages.
        self.control_handler: Optional[Callable[[Message], None]] = None
        transport.set_receiver(self._on_frame)

    def register(self, node_id: str, handler: Callable[[Message], None]) -> None:
        """Attach a process and announce it to the transport."""
        super().register(node_id, handler)
        self.transport.register_node(node_id)

    # --------------------------------------------------------------- sending

    def send(
        self,
        sender: str,
        recipient: str,
        kind: str,
        payload: Any = None,
        size: int = 1,
        trace: Optional[Tuple] = None,
    ) -> Message:
        """Encode a message and hand it to the transport."""
        message = Message(sender, recipient, kind, payload, size, self.simulator.now, trace)
        self.stats.record_sent(message)
        extra_latency = 0.0
        if not kind.startswith(CONTROL_PREFIX):
            if not self._same_partition(sender, recipient):
                self._drop(message, "partition")
                return message
            extra_latency = self._link_fate(message)
            if extra_latency is None:
                return message
        body = encode_message(message)
        if extra_latency > 0.0:
            self.simulator.schedule(
                extra_latency, partial(self._transmit, message, body), label="fault:extra-latency"
            )
        else:
            self._transmit(message, body)
        return message

    def _transmit(self, message: Message, body: bytes) -> None:
        if not self.transport.send(message.recipient, body):
            self._drop(message, "dead")

    # Defined here, not only in the fabric: perfbench spans it by patching
    # ``RuntimeNetwork.__dict__``.
    def _trace_drop(self, message: Message, reason: str) -> None:
        super()._trace_drop(message, reason)

    # ------------------------------------------------------------- receiving

    def _on_frame(self, body: bytes) -> None:
        try:
            message = decode_message(body)
        except WireError:
            self.decode_errors += 1
            return
        self._deliver(message)

    def _deliver(self, message: Message) -> None:
        if message.kind.startswith(CONTROL_PREFIX):
            if self.control_handler is not None:
                self.control_handler(message)
            return
        # Frames from remote peers are filtered here too: in a multi-host
        # cluster only the host running the fault controller knows about the
        # partition, so the receive side must enforce it as well.
        if not self._same_partition(message.sender, message.recipient):
            self._drop(message, "partition")
            return
        self._hand_over(message)
