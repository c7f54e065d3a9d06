"""Live execution runtime: the protocol stack on real time and real transports.

The simulator expresses every protocol against three narrow interfaces — a
clock (``now``), a scheduler (``schedule*``), and a network (``register`` /
``send``).  This package provides live implementations of all three so the
*same* protocol classes (push and push-pull gossip, CYCLON/lpbcast
membership, the fair-gossip controllers, the accounting ledger) run outside
the simulator without modification:

* :mod:`~repro.runtime.clock` — :class:`WallClock`, real time in protocol
  time units (with a configurable time scale);
* :mod:`~repro.runtime.scheduler` — :class:`AsyncScheduler`, the simulator's
  scheduling surface on an asyncio loop;
* :mod:`~repro.runtime.wire` — length-prefixed JSON codec for every payload
  that travels (events, digests, shuffles, subscription exchanges);
* :mod:`~repro.runtime.transport` — in-process, UDP, and TCP frame carriers;
* :mod:`~repro.runtime.network` — the simulator network's interface over a
  transport;
* :mod:`~repro.runtime.host` — :class:`NodeHost`, a live cluster with the
  ``publish``/``subscribe`` API of §2;
* :mod:`~repro.runtime.loadgen` — :class:`LoadGenerator`, workload-model
  driven publications at a target events/sec with latency capture;
* :mod:`~repro.runtime.cli` — the ``python -m repro serve`` / ``loadgen``
  subcommands.
"""

from .clock import WallClock
from .host import NodeHost
from .loadgen import LoadGenerator, LoadReport
from .network import RuntimeNetwork
from .scheduler import AsyncPeriodicTimer, AsyncScheduler, AsyncScheduledEvent
from .transport import (
    MemoryHub,
    MemoryTransport,
    TcpTransport,
    Transport,
    UdpTransport,
)
from .wire import (
    MAX_FRAME_SIZE,
    PUBLISH_KIND,
    SUBSCRIBE_KIND,
    UNSUBSCRIBE_KIND,
    WIRE_VERSION,
    FrameDecoder,
    WireError,
    decode_message,
    encode_message,
    frame,
)

__all__ = [
    "WallClock",
    "AsyncScheduler",
    "AsyncScheduledEvent",
    "AsyncPeriodicTimer",
    "RuntimeNetwork",
    "Transport",
    "MemoryHub",
    "MemoryTransport",
    "UdpTransport",
    "TcpTransport",
    "NodeHost",
    "LoadGenerator",
    "LoadReport",
    "WIRE_VERSION",
    "MAX_FRAME_SIZE",
    "PUBLISH_KIND",
    "SUBSCRIBE_KIND",
    "UNSUBSCRIBE_KIND",
    "WireError",
    "FrameDecoder",
    "encode_message",
    "decode_message",
    "frame",
]
