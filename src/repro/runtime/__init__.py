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

from .._exports import lazy_exports

#: Schema tag of :class:`~repro.runtime.loadgen.RuntimeArtifact`, the runtime
#: commands' ``--json``; declared here so ``repro report`` can recognise it
#: without loading the runtime.
RUNTIME_ARTIFACT_SCHEMA = "rt-load/v1"

_EXPORTS = {
    "WallClock": ".clock",
    "AsyncScheduler": ".scheduler",
    "AsyncScheduledEvent": ".scheduler",
    "AsyncPeriodicTimer": ".scheduler",
    "RuntimeNetwork": ".network",
    "Transport": ".transport",
    "MemoryHub": ".transport",
    "MemoryTransport": ".transport",
    "UdpTransport": ".transport",
    "TcpTransport": ".transport",
    "NodeHost": ".host",
    "LoadGenerator": ".loadgen",
    "LoadReport": ".loadgen",
    "WIRE_VERSION": ".wire",
    "MAX_FRAME_SIZE": ".wire",
    "WireError": ".wire",
    "FrameDecoder": ".wire",
    "encode_message": ".wire",
    "decode_message": ".wire",
    "frame": ".wire",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
