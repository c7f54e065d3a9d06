"""The primitive fault actions, shared by every injector.

Both the declarative :class:`~repro.faults.controller.FaultController` and
the imperative injectors (:mod:`repro.faults.injectors`) apply faults
through these two helpers, so the behaviours — in particular the churn
draw sequence, which pinned historical traces depend on byte for byte —
exist in exactly one place.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = [
    "FAULT_EVENTS_METRIC",
    "FAULT_SKIPPED_METRIC",
    "apply_node_action",
    "churn_tick",
]

#: Telemetry counter names every fault injector emits (tagged by
#: ``action``).  The report's fault timeline reads exactly these, so both
#: the declarative controller and the imperative injectors share the
#: constants rather than re-spelling the schema.
FAULT_EVENTS_METRIC = "fault.events"
FAULT_SKIPPED_METRIC = "fault.skipped"


def apply_node_action(registry, node_id: str, action: str) -> bool:
    """Apply one ``crash``/``recover``/``leave`` to a registered process.

    A leave is for good: the process leaves the registry, and its active
    subscriptions are cancelled at the leave time in the registry's
    subscription table, which from then on counts it interested in nothing.

    Returns ``False`` — without touching anything — when the node is not
    (or no longer) in the registry; callers turn that into a loud
    ``fault.skipped`` record rather than a silent no-op.
    """
    if registry is None or node_id not in registry:
        return False
    process = registry.get(node_id)
    if action == "crash":
        process.crash()
    elif action == "recover":
        process.recover()
    else:
        process.leave()
        registry.remove(node_id)
        if registry.subscriptions is not None:
            registry.subscriptions.unsubscribe_all(node_id, timestamp=process.simulator.now)
    return True


def churn_tick(
    registry,
    rng,
    down_probability: float,
    up_probability: float,
    protected,
    on_crash: Optional[Callable[[str], None]] = None,
    on_recover: Optional[Callable[[str], None]] = None,
) -> None:
    """One churn round: crash alive nodes, recover crashed ones.

    Exactly one ``rng.random()`` draw per unprotected process, every tick,
    regardless of the probabilities — the draw sequence is part of the
    determinism contract (pinned traces reproduce only if the sequence
    never changes), so do not guard the draws.
    """
    for process in registry.all():
        if process.node_id in protected:
            continue
        if process.alive:
            if rng.random() < down_probability:
                process.crash()
                if on_crash is not None:
                    on_crash(process.node_id)
        else:
            if rng.random() < up_probability:
                process.recover()
                if on_recover is not None:
                    on_recover(process.node_id)
