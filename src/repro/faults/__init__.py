"""Unified fault injection for both execution worlds.

One declarative :class:`FaultPlan` (composable :class:`FaultSpec` entries —
crash/recover/leave schedules, continuous churn, transient partitions,
link-level latency/loss perturbation) drives instability experiments on the
discrete-event simulator *and* the live asyncio runtime: the
:class:`FaultController` actuates the plan against whichever
scheduler/network/registry triple it is handed, and every stochastic entry
draws from a named :class:`~repro.sim.rng.RngRegistry` stream so simulator
runs stay byte-identical per seed.

Typical wiring::

    from repro.faults import FaultController, FaultPlan

    plan = FaultPlan.from_file("plan.json")
    controller = FaultController.for_system(system, plan)  # validates, binds
    controller.start()

The imperative injectors (:class:`CrashSchedule`, :class:`ChurnInjector`,
:class:`PartitionInjector`) are the independent reference the plan-parity
tests compare the controller against, and serve hand-wired experiments.
"""

from .controller import FaultController
from .injectors import ChurnInjector, CrashEvent, CrashSchedule, PartitionInjector
from .plan import FAULT_KINDS, PLAN_SCHEMA, FaultPlan, FaultPlanError, FaultSpec

__all__ = [
    "FAULT_KINDS",
    "PLAN_SCHEMA",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "FaultController",
    "CrashEvent",
    "CrashSchedule",
    "ChurnInjector",
    "PartitionInjector",
]
