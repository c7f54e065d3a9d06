"""FaultController: drive a :class:`~repro.faults.plan.FaultPlan` anywhere.

The controller is deliberately substrate-agnostic: it touches only the
scheduling surface shared by the discrete-event
:class:`~repro.sim.engine.Simulator` and the live
:class:`~repro.runtime.scheduler.AsyncScheduler` (``now``, ``rng``,
``schedule``/``schedule_periodic``), the network surface shared by
:class:`~repro.sim.network.Network` and
:class:`~repro.runtime.network.RuntimeNetwork` (``known_nodes``,
``set_partition``/``clear_partition``,
``set_perturbation``/``clear_perturbation``), and the
:class:`~repro.sim.node.ProcessRegistry` both worlds populate.  One
controller implementation therefore actuates the same plan JSON in the
simulator and on real transports.

Every fault event is emitted as tagged telemetry (``fault.events`` counters
keyed by ``action``, ``fault.skipped`` for targets that no longer exist,
``fault.partition_active`` / ``fault.perturb_active`` / ``fault.nodes_down``
gauges), so snapshot streams carry a fault timeline next to the fairness
series — ``python -m repro report`` renders it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..telemetry import Telemetry
from .plan import FaultPlan, FaultPlanError, FaultSpec

__all__ = ["FaultController"]

#: Telemetry counter names of applied and skipped faults (tagged by
#: ``action``); the report's fault timeline reads exactly these.
FAULT_EVENTS_METRIC = "fault.events"
FAULT_SKIPPED_METRIC = "fault.skipped"


class FaultController:
    """Schedules and applies one fault plan on a scheduler/network/registry.

    Parameters
    ----------
    scheduler:
        ``Simulator`` or ``AsyncScheduler`` (duck-typed).
    network:
        ``Network`` or ``RuntimeNetwork`` (duck-typed); may be ``None`` for
        plans without partition/perturb entries.
    registry:
        The shared :class:`~repro.sim.node.ProcessRegistry`; may be ``None``
        for plans without node-level entries.
    plan:
        The (already validated) fault plan to execute.
    domain_map:
        The run's :class:`~repro.topology.domains.DomainMap`, required when
        the plan contains domain-partition entries (``domains=...``); those
        entries resolve domain names into a group map at install time.
    telemetry:
        The run's :class:`~repro.telemetry.Telemetry` store (a private one
        when omitted); recording draws no randomness and schedules nothing,
        so it cannot perturb a run.
    """

    def __init__(
        self,
        scheduler,
        network=None,
        registry=None,
        plan: FaultPlan = FaultPlan(),
        *,
        domain_map=None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if plan.needs_registry() and registry is None:
            raise FaultPlanError(
                "fault plan contains node-level entries (crash/recover/leave/churn) "
                "but no process registry is available; pick a registry-backed "
                "system or drop the node-fault entries"
            )
        if plan.needs_network() and network is None:
            raise FaultPlanError(
                "fault plan contains network entries (partition/perturb) "
                "but no network is available"
            )
        for index, entry in enumerate(plan.entries):
            if entry.kind != "partition" or not entry.domains:
                continue
            if domain_map is None:
                raise FaultPlanError(
                    f"fault entry #{index} ('partition'): names domains "
                    f"{sorted(entry.domains)} but the run has no topology; "
                    "set topology.domains (or pass --topology) first"
                )
            # Resolve now so unknown domain names fail at build time, not
            # mid-run; the install closure re-resolves against the same map.
            try:
                domain_map.partition_assignment(entry.domains)
            except ValueError as error:
                raise FaultPlanError(
                    f"fault entry #{index} ('partition'): {error}"
                )
        self._domain_map = domain_map
        self._scheduler = scheduler
        self._network = network
        self._registry = registry
        self.plan = plan
        self._telemetry = telemetry if telemetry is not None else Telemetry()
        self._events: List = []
        self._timers: List = []
        self._started = False
        self._perturb_active = 0
        self._partition_active = 0
        #: Generation counters: each install bumps one, and the matching
        #: heal/lift only clears the network if its own install is still
        #: the latest.  Back-to-back windows (one window's end == the next
        #: window's start) are valid, and scheduling order within the
        #: shared timestamp must not let the earlier window's heal erase
        #: the later window's freshly installed fault.
        self._partition_generation = 0
        self._perturb_generation = 0
        #: Event counts by action (``crash``/``recover``/``leave``/
        #: ``skipped``/``partition``/``heal``/``perturb``).
        self.counts: Dict[str, int] = {}

    @classmethod
    def for_system(
        cls,
        system,
        plan: FaultPlan,
        *,
        telemetry: Optional[Telemetry] = None,
        total_time: Optional[float] = None,
    ) -> "FaultController":
        """Validate ``plan`` against a built system and bind a controller to it.

        ``system`` — a simulated stack or the live
        :class:`~repro.runtime.host.NodeHost` — supplies the scheduler, the
        fabric, the process registry and (under a topology) the domain map.
        The node universe is the *registry*, not just the client nodes, so
        plans may target infra participants too (brokers, rendezvous
        nodes).  An invalid or unsatisfiable plan raises
        :class:`FaultPlanError` here, before any time passes, instead of
        quietly measuring a calmer run; that includes node faults on a
        system without member processes (an externally registered system
        may expose no registry at all).
        """
        # ``or None``: a registry nobody is in counts as none, so the
        # constructor's guard rejects node-level entries.
        registry = getattr(system, "registry", None) or None
        plan.validate(node_ids=registry.ids() if registry else None, total_time=total_time)
        topology = system.topology
        return cls(
            system.simulator,
            system.network,
            registry,
            plan,
            domain_map=topology.domain_map if topology is not None else None,
            telemetry=telemetry,
        )

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Schedule every plan entry; idempotent."""
        if self._started:
            return
        self._started = True
        for index, entry in enumerate(self.plan.entries):
            if entry.kind in ("crash", "recover", "leave"):
                self._schedule_node_actions(entry)
            elif entry.kind == "churn":
                self._schedule_churn(entry, index)
            elif entry.kind == "partition":
                self._schedule_partition(entry)
            elif entry.kind == "perturb":
                self._schedule_perturb(entry, index)
            else:  # pragma: no cover - validate() rejects unknown kinds
                raise FaultPlanError(f"unknown fault kind {entry.kind!r}")

    def stop(self) -> None:
        """Cancel pending events and timers; lift live network faults.

        A partition or perturbation whose heal/lift event was still pending
        is cleared here — cancelling the heal while leaving the network
        split would leak a permanent partition into whatever runs next.
        """
        for event in self._events:
            event.cancel()
        self._events.clear()
        for timer in self._timers:
            timer.stop()
        self._timers.clear()
        if self._network is not None and self._perturb_active:
            self._network.clear_perturbation()
            self._perturb_active = 0
            self._telemetry.set_gauge("fault.perturb_active", 0.0)
        if self._network is not None and self._partition_active:
            self._network.clear_partition()
            self._partition_active = 0
            self._telemetry.set_gauge("fault.partition_active", 0.0)
        self._started = False

    # ----------------------------------------------------------- schedulers

    def _at(self, timestamp: float, action, label: str) -> None:
        """Schedule ``action`` at absolute plan time (clamped to now)."""
        delay = max(0.0, timestamp - self._scheduler.now)
        self._events.append(self._scheduler.schedule(delay, action, label=label))

    def _schedule_node_actions(self, entry: FaultSpec) -> None:
        for node_id in entry.nodes:
            self._at(
                entry.at,
                lambda node_id=node_id, action=entry.kind: self._apply_node(action, node_id),
                label=f"fault:{entry.kind}:{node_id}",
            )

    def _schedule_churn(self, entry: FaultSpec, index: int) -> None:
        stream_name = entry.rng_stream or f"fault-{index}-churn"

        protected = set(entry.protected)

        def tick() -> None:
            if entry.until > 0 and self._scheduler.now > entry.until:
                for timer in timers:
                    timer.stop()
                return
            # Exactly one draw per unprotected process, every tick, whatever
            # the probabilities: the draw sequence is part of the determinism
            # contract (pinned traces reproduce only if it never changes), so
            # do not guard the draws.
            rng = self._scheduler.rng.stream(stream_name)
            for process in self._registry.all():
                if process.node_id in protected:
                    continue
                if process.alive:
                    if rng.random() < entry.down_probability:
                        process.crash()
                        self._record("crash")
                elif rng.random() < entry.up_probability:
                    process.recover()
                    self._record("recover")

        timers: List = []

        def arm() -> None:
            timer = self._scheduler.schedule_periodic(
                entry.period, tick, label=f"fault:churn:{stream_name}"
            )
            timers.append(timer)
            self._timers.append(timer)

        if entry.at <= self._scheduler.now:
            arm()
        else:
            self._at(entry.at, arm, label=f"fault:churn-start:{stream_name}")

    def _schedule_partition(self, entry: FaultSpec) -> None:
        generation = {"installed": None}

        def install() -> None:
            if entry.domains:
                assignment = self._domain_map.partition_assignment(entry.domains)
            elif entry.groups:
                assignment = {node_id: group for node_id, group in entry.groups}
            else:
                members = sorted(self._network.known_nodes())
                cutoff = max(1, int(len(members) * entry.fraction))
                assignment = {
                    node_id: (1 if position < cutoff else 0)
                    for position, node_id in enumerate(members)
                }
            self._network.set_partition(assignment)
            self._partition_generation += 1
            generation["installed"] = self._partition_generation
            self._partition_active += 1
            self._record("partition")
            self._telemetry.set_gauge("fault.partition_active", 1.0)

        def heal() -> None:
            self._partition_active = max(0, self._partition_active - 1)
            if generation["installed"] != self._partition_generation:
                return  # a newer window's install superseded this one
            self._network.clear_partition()
            self._record("heal")
            self._telemetry.set_gauge("fault.partition_active", 0.0)

        self._at(entry.at, install, label="fault:partition:install")
        self._at(entry.at + entry.heal_after, heal, label="fault:partition:heal")

    def _schedule_perturb(self, entry: FaultSpec, index: int) -> None:
        stream_name = entry.rng_stream or f"fault-{index}-perturb"
        generation = {"installed": None}

        def install() -> None:
            rng = self._scheduler.rng.stream(stream_name) if entry.loss_rate > 0 else None
            self._network.set_perturbation(
                extra_latency=entry.extra_latency, loss_rate=entry.loss_rate, rng=rng
            )
            self._perturb_generation += 1
            generation["installed"] = self._perturb_generation
            self._perturb_active += 1
            self._record("perturb")
            self._telemetry.set_gauge("fault.perturb_active", 1.0)

        def lift() -> None:
            self._perturb_active = max(0, self._perturb_active - 1)
            if generation["installed"] != self._perturb_generation:
                return  # a newer window's install superseded this one
            self._network.clear_perturbation()
            self._telemetry.set_gauge("fault.perturb_active", 0.0)

        self._at(entry.at, install, label="fault:perturb:install")
        if entry.until > 0:
            self._at(entry.until, lift, label="fault:perturb:lift")

    # ------------------------------------------------------------ actuation

    def _apply_node(self, action: str, node_id: str) -> None:
        """Apply one crash/recover/leave; unknown targets become ``skipped``.

        A leave is for good: the process leaves the registry, and its active
        subscriptions are cancelled at the leave time in the registry's
        subscription table, which from then on counts it interested in nothing.
        """
        registry = self._registry
        if registry is None or node_id not in registry:
            self._skip(action)
            return
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
        self._record(action)

    # -------------------------------------------------------- observability

    def _record(self, action: str) -> None:
        self.counts[action] = self.counts.get(action, 0) + 1
        self._telemetry.increment(FAULT_EVENTS_METRIC, action=action)
        if self._registry is not None:
            down = len(self._registry.all()) - len(self._registry.alive())
            self._telemetry.set_gauge("fault.nodes_down", float(down))

    def _skip(self, action: str) -> None:
        """A fault targeted a node that no longer exists: make it loud.

        Dropping the event silently would let a mistyped or already-left
        node id turn a failure experiment into a quieter one with nobody
        noticing; instead the skip lands in telemetry (``fault.skipped``).
        """
        self.counts["skipped"] = self.counts.get("skipped", 0) + 1
        self._telemetry.increment(FAULT_SKIPPED_METRIC, action=action)
