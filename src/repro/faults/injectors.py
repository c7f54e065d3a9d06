"""Imperative failure injectors: the reference for plan-parity tests.

These are the hand-wired counterparts of the declarative
:class:`~repro.faults.plan.FaultPlan`: the tests that check the
:class:`~repro.faults.controller.FaultController` against an independent
implementation (and examples that want to say "kill *this* node at *this*
time" without building a plan) use them.
They share the controller's skip-is-loud discipline: an event aimed at a
node that no longer exists counts a ``fault.skipped`` telemetry event
instead of vanishing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..sim.engine import Simulator
from ..sim.network import Network
from ..sim.node import ProcessRegistry
from ..telemetry import Telemetry
from .actions import (
    FAULT_EVENTS_METRIC,
    FAULT_SKIPPED_METRIC,
    apply_node_action,
    churn_tick,
)

__all__ = ["CrashEvent", "CrashSchedule", "ChurnInjector", "PartitionInjector"]


@dataclass(frozen=True)
class CrashEvent:
    """A single scheduled crash or recovery."""

    time: float
    node_id: str
    action: str  # "crash" | "recover" | "leave"


class CrashSchedule:
    """Deterministic list of crash / recover / leave events.

    Useful in tests and in experiments that need a precise failure pattern
    (for example "kill the rendezvous node of the most popular topic at
    t=20").
    """

    _ACTIONS = {"crash", "recover", "leave"}

    def __init__(
        self,
        simulator: Simulator,
        registry: ProcessRegistry,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self._simulator = simulator
        self._registry = registry
        self._telemetry = telemetry if telemetry is not None else Telemetry()
        self.events: List[CrashEvent] = []
        self.skipped = 0

    def add(self, time: float, node_id: str, action: str = "crash") -> CrashEvent:
        """Schedule one event; ``action`` is ``crash``, ``recover`` or ``leave``."""
        if action not in self._ACTIONS:
            raise ValueError(f"unknown action {action!r}")
        event = CrashEvent(time=time, node_id=node_id, action=action)
        self.events.append(event)
        self._simulator.schedule_at(time, lambda: self._apply(event), label=f"{action}:{node_id}")
        return event

    def _apply(self, event: CrashEvent) -> None:
        if not apply_node_action(self._registry, event.node_id, event.action):
            # The target left (or never existed): dropping the event quietly
            # would mislabel the run as having executed its failure pattern,
            # so the skip is recorded where analysis code will see it.
            self.skipped += 1
            self._telemetry.increment(FAULT_SKIPPED_METRIC, action=event.action)
            return
        self._telemetry.increment(FAULT_EVENTS_METRIC, action=event.action)


class ChurnInjector:
    """Continuous random churn.

    Every ``period`` time units, each alive node crashes with probability
    ``down_probability`` and each crashed node recovers with probability
    ``up_probability``.  Nodes listed in ``protected`` never churn, which is
    how experiments keep publishers or measurement anchors alive.
    """

    def __init__(
        self,
        simulator: Simulator,
        registry: ProcessRegistry,
        period: float = 1.0,
        down_probability: float = 0.05,
        up_probability: float = 0.5,
        protected: Optional[Iterable[str]] = None,
    ) -> None:
        if not 0.0 <= down_probability <= 1.0 or not 0.0 <= up_probability <= 1.0:
            raise ValueError("probabilities must be within [0, 1]")
        self._simulator = simulator
        self._registry = registry
        self.period = period
        self.down_probability = down_probability
        self.up_probability = up_probability
        self.protected = set(protected or ())
        self._timer = None
        self.crashes = 0
        self.recoveries = 0

    def start(self) -> None:
        """Begin injecting churn each period."""
        if self._timer is None:
            self._timer = self._simulator.schedule_periodic(
                self.period, self._tick, label="churn-injector"
            )

    def stop(self) -> None:
        """Stop injecting churn (already-crashed nodes stay down)."""
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    def _tick(self) -> None:
        churn_tick(
            self._registry,
            self._simulator.rng.stream("churn"),
            self.down_probability,
            self.up_probability,
            self.protected,
            on_crash=lambda node_id: self._record(node_id, "crash"),
            on_recover=lambda node_id: self._record(node_id, "recover"),
        )

    def _record(self, node_id: str, action: str) -> None:
        if action == "crash":
            self.crashes += 1
        else:
            self.recoveries += 1


class PartitionInjector:
    """Installs and heals network partitions at scheduled times."""

    def __init__(self, simulator: Simulator, network: Network) -> None:
        self._simulator = simulator
        self._network = network
        self.partitions_installed = 0

    def partition_at(self, time: float, assignment: Dict[str, int], heal_after: float) -> None:
        """Split the network at ``time`` and heal it ``heal_after`` units later."""
        if heal_after <= 0:
            raise ValueError("heal_after must be positive")

        def install() -> None:
            self._network.set_partition(assignment)
            self.partitions_installed += 1

        self._simulator.schedule_at(time, install, label="partition:install")
        self._simulator.schedule_at(
            time + heal_after, self._network.clear_partition, label="partition:heal"
        )

    def split_in_two(self, node_ids: List[str], time: float, heal_after: float, fraction: float = 0.5) -> None:
        """Convenience: put the first ``fraction`` of ``node_ids`` in group 1."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be strictly between 0 and 1")
        cutoff = max(1, int(len(node_ids) * fraction))
        assignment = {node_id: (1 if index < cutoff else 0) for index, node_id in enumerate(node_ids)}
        self.partition_at(time, assignment, heal_after)
