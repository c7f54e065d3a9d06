"""Discrete-event simulation substrate.

This package is the testbed substitute: a deterministic, seeded
discrete-event simulator with a virtual clock, a message-passing network
model (one constant link latency, Bernoulli loss, partitions), and a process
abstraction with periodic timers.  Failure injection lives in
:mod:`repro.faults`, metrics in :mod:`repro.telemetry`, and tracing in
:mod:`repro.tracing`.

Typical wiring::

    from repro.sim import Simulator, Network, ProcessRegistry

    sim = Simulator(seed=42)
    net = Network(sim)
    registry = ProcessRegistry()
    # ... create Process subclasses, start them, then:
    sim.run(until=100.0)
"""

from .._exports import lazy_exports

_EXPORTS = {
    "Clock": ".clock",
    "VirtualClock": ".clock",
    "Simulator": ".engine",
    "ScheduledEvent": ".engine",
    "PeriodicTimer": ".engine",
    "SimulationError": ".engine",
    "Message": ".network",
    "Network": ".network",
    "NetworkStats": ".network",
    "Process": ".node",
    "ProcessRegistry": ".node",
    "RngRegistry": ".rng",
    "derive_seed": ".rng",
    "zipf_weights": ".rng",
    "weighted_choice": ".rng",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
