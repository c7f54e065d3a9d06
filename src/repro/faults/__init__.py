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
"""

from .._exports import lazy_exports

_EXPORTS = {
    "FAULT_KINDS": ".plan",
    "PLAN_SCHEMA": ".plan",
    "FaultPlan": ".plan",
    "FaultPlanError": ".plan",
    "FaultSpec": ".plan",
    "FaultController": ".controller",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
