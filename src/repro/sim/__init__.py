"""Discrete-event simulation substrate.

This package is the testbed substitute: a deterministic, seeded
discrete-event simulator with a virtual clock, a message-passing network
model (latency, loss, partitions), and a process abstraction with periodic
timers.  Failure injection lives in :mod:`repro.faults`, metrics in
:mod:`repro.telemetry`, and tracing in :mod:`repro.tracing`.

Typical wiring::

    from repro.sim import Simulator, Network, ProcessRegistry

    sim = Simulator(seed=42)
    net = Network(sim)
    registry = ProcessRegistry()
    # ... create Process subclasses, start them, then:
    sim.run(until=100.0)
"""

from .clock import Clock, VirtualClock
from .engine import PeriodicTimer, ScheduledEvent, SimulationError, Simulator
from .network import (
    BernoulliLoss,
    ConstantLatency,
    LogNormalLatency,
    LossModel,
    LatencyModel,
    Message,
    Network,
    NetworkStats,
    NoLoss,
    UniformLatency,
)
from .node import Process, ProcessRegistry
from .rng import RngRegistry, derive_seed, weighted_choice, zipf_weights

__all__ = [
    "Clock",
    "VirtualClock",
    "Simulator",
    "ScheduledEvent",
    "PeriodicTimer",
    "SimulationError",
    "Message",
    "Network",
    "NetworkStats",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LogNormalLatency",
    "LossModel",
    "NoLoss",
    "BernoulliLoss",
    "Process",
    "ProcessRegistry",
    "RngRegistry",
    "derive_seed",
    "zipf_weights",
    "weighted_choice",
]
