"""NodeHost: a set of protocol nodes running live in one process.

The host is the runtime counterpart of
:class:`~repro.gossip.system.GossipSystem`: it owns the wall clock, the
asyncio scheduler, the runtime network, the shared ledger / delivery log /
subscription table, and one protocol node per hosted participant.  The node
classes are the *simulator's* node classes, unmodified — the host simply
hands them an :class:`~repro.runtime.scheduler.AsyncScheduler` where they
expect a ``Simulator`` and a :class:`~repro.runtime.network.RuntimeNetwork`
where they expect a ``Network``.

The host also answers the runtime's control frames, so a remote peer (for
example a standalone load generator) can publish events and exchange
subscriptions over the wire:

* ``runtime.publish`` — publish the carried event from the addressed node;
* ``runtime.subscribe`` / ``runtime.unsubscribe`` — add or remove the
  carried filter on the addressed node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Type

from ..core.accounting import WorkLedger
from ..core.policy import EXPRESSIVE_POLICY, FairnessPolicy
from ..analysis.fairness_report import (
    SystemFairnessSummary,
    publish_fairness_gauges,
    summarise_fairness,
)
from ..faults.plan import FaultPlan, FaultPlanError
from ..gossip.push import PushGossipNode
from ..gossip.system import bootstrap_views
from ..membership.base import MembershipProvider
from ..membership.cyclon import cyclon_provider
from ..pubsub.events import Event
from ..pubsub.filters import Filter
from ..pubsub.interfaces import DeliveryCallback, DeliveryLog, DisseminationSystem
from ..sim.rng import RngRegistry
from ..registry.builtins import build_popularity, build_stack, resolve_policy_kind
from ..registry.specs import StackSpec
from ..telemetry.facade import Telemetry
from ..telemetry.sinks import TelemetrySink
from ..telemetry.snapshot import SnapshotScheduler
from .clock import WallClock
from .network import RuntimeNetwork
from .scheduler import AsyncScheduler
from .transport import Transport
from .wire import PUBLISH_KIND, SUBSCRIBE_KIND, UNSUBSCRIBE_KIND

if TYPE_CHECKING:  # annotations only: _start_faults imports it for a non-empty plan
    from ..faults.controller import FaultController

__all__ = ["NodeHost"]

#: Metric names the host maintains in its registry.
DELIVERY_LATENCY_METRIC = "rt.delivery_latency_units"
DELIVERIES_METRIC = "rt.deliveries"
PUBLISHED_METRIC = "rt.published"


class NodeHost(DisseminationSystem):
    """Runs simulator-facing gossip nodes on real time and a real transport.

    Parameters
    ----------
    transport:
        Frame carrier (memory, UDP, or TCP).
    seed:
        Master seed for the protocol RNG streams (peer/event selection stays
        seeded; message *timing* is wall-clock and therefore not replayable).
    time_scale:
        Time units per real second (see :class:`~repro.runtime.clock.WallClock`).
    node_class / node_kwargs / membership_provider:
        Exactly as in :class:`~repro.gossip.system.GossipSystem`.
    spec:
        Build this registered stack on :meth:`start`; checked here first
        (:meth:`StackSpec.validate`).
    """

    name = "live-gossip"

    def __init__(
        self,
        transport: Transport,
        seed: int = 0,
        time_scale: float = 1.0,
        node_class: Type[PushGossipNode] = PushGossipNode,
        node_kwargs: Optional[Dict] = None,
        membership_provider: Optional[MembershipProvider] = None,
        ledger: Optional[WorkLedger] = None,
        delivery_log: Optional[DeliveryLog] = None,
        telemetry: Optional[Telemetry] = None,
        snapshot_sinks: Optional[Sequence[TelemetrySink]] = None,
        snapshot_period: Optional[float] = None,
        spec: Optional[StackSpec] = None,
        fault_plan: Optional[FaultPlan] = None,
        tracer=None,
    ) -> None:
        if spec is not None:
            spec.validate(live=True)
        self.clock = WallClock(time_scale=time_scale)
        self.scheduler = AsyncScheduler(self.clock, RngRegistry(seed))
        # The scheduler stands where the skeleton expects a simulator.
        super().__init__(
            self.scheduler, RuntimeNetwork(self.scheduler, transport), ledger, delivery_log
        )
        self.network.control_handler = self._handle_control
        #: Dissemination tracer, attached on :meth:`start` once the nodes
        #: exist.  Tracing is observability, not configuration — it never
        #: appears in the spec.
        self.tracer = tracer
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._latency_histogram = self.telemetry.histogram(DELIVERY_LATENCY_METRIC)
        self._deliveries_counter = self.telemetry.counter(DELIVERIES_METRIC)
        self._published_counter = self.telemetry.counter(PUBLISHED_METRIC)
        #: Periodic snapshot wiring: explicit arguments win, otherwise the
        #: spec's TelemetrySpec applies.  Periods are in protocol time units
        #: (the wall clock's scale maps them onto real seconds).
        if spec is not None and not snapshot_sinks:
            snapshot_sinks = spec.telemetry.sinks
            if snapshot_period is None:
                snapshot_period = spec.telemetry.period
        self._snapshot_sinks = snapshot_sinks
        self._snapshot_period = snapshot_period
        self.snapshot_scheduler: Optional[SnapshotScheduler] = None
        self._node_class = node_class
        self._node_kwargs = dict(node_kwargs or {})
        self._provider = (
            membership_provider if membership_provider is not None else cyclon_provider()
        )
        #: In spec mode the host builds a complete registered system through
        #: the component registry on :meth:`start` (timers need the running
        #: asyncio loop) and delegates the §2 API to it.
        self._spec = spec
        self.system: Optional[DisseminationSystem] = None
        #: Fairness is judged the way the simulator judges the same spec.
        self.policy: FairnessPolicy = EXPRESSIVE_POLICY
        if spec is not None:
            self.name = f"live-{spec.system.kind}"
            self.policy = resolve_policy_kind(spec.policy.kind)
        #: Fault injection: an explicit plan wins; otherwise the spec's
        #: faults section is compiled on :meth:`start` (after the nodes
        #: exist, so the plan can be validated against the real universe).
        self._fault_plan = fault_plan
        self.fault_controller: Optional[FaultController] = None
        self._started = False

    # --------------------------------------------------------------- wiring

    @property
    def transport(self) -> Transport:
        """The transport underneath this host."""
        return self.network.transport

    def add_node(
        self,
        node_id: str,
        node_class: Optional[Type[PushGossipNode]] = None,
        **overrides,
    ) -> PushGossipNode:
        """Create (but do not start) one hosted node."""
        if self._spec is not None:
            raise ValueError(
                "this host builds its nodes from a StackSpec; set spec.nodes instead"
            )
        if node_id in self.nodes:
            raise ValueError(f"duplicate node id {node_id!r}")
        kwargs = dict(self._node_kwargs)
        kwargs.update(overrides)
        cls = node_class if node_class is not None else self._node_class
        kwargs.setdefault("telemetry", self.telemetry)
        node = cls(
            node_id,
            self.scheduler,
            self.network,
            membership_provider=self._provider,
            ledger=self.ledger,
            delivery_log=self._delivery_log,
            **kwargs,
        )
        node.add_delivery_callback(self._record_delivery)
        self._adopt(node)
        return node

    def add_nodes(self, node_ids: Sequence[str], **overrides) -> None:
        """Create several nodes in one call."""
        for node_id in node_ids:
            self.add_node(node_id, **overrides)

    def bootstrap(self, degree: int = 10) -> None:
        """Give every node a random set of initial contacts."""
        bootstrap_views(self.nodes, self.scheduler.rng.stream("bootstrap"), degree)

    # ------------------------------------------------------------- lifecycle

    async def start(self, bootstrap_degree: int = 10) -> None:
        """Start the transport, build/bootstrap the stack, start every node.

        In spec mode the registered system is constructed *here* rather than
        in ``__init__`` because protocol timers schedule against the running
        asyncio loop.
        """
        if self._started:
            return
        await self.transport.start()
        if self._spec is not None:
            if self.system is None:
                self._build_from_spec(self._spec)
        else:
            self.bootstrap(bootstrap_degree)
            for node in self.nodes.values():
                node.start()
        if self.tracer is not None:
            self.attach_tracer(self.tracer)
        self.snapshot_scheduler = SnapshotScheduler.attach(
            self.telemetry,
            self._snapshot_sinks,
            self._snapshot_period,
            self.scheduler,
            collect=self._collect_telemetry,
        )
        self._started = True
        try:
            self._start_faults()
        except FaultPlanError:
            # The transport, node timers, and snapshot scheduler are
            # already live; tear everything down so an unsatisfiable plan
            # leaves no half-started cluster behind.
            await self.stop()
            raise

    def _start_faults(self) -> None:
        """Validate and start the fault plan against the live cluster.

        The same :class:`~repro.faults.plan.FaultPlan` that drives the
        simulator drives this host: the controller crashes/recovers member
        nodes through the shared process registry, and partitions/perturbs
        links through :class:`~repro.runtime.network.RuntimeNetwork`.
        """
        plan = self._fault_plan
        if plan is None and self._spec is not None:
            plan = FaultPlan.from_spec(self._spec)
        if plan is None or plan.is_empty():
            return
        from ..faults.controller import FaultController

        self.fault_controller = FaultController.for_system(self, plan, telemetry=self.telemetry)
        self.fault_controller.start()

    def _build_from_spec(self, spec: StackSpec) -> None:
        """Build the system named by ``spec.system.kind`` and adopt it."""
        popularity = build_popularity(spec)
        system = build_stack(
            spec,
            self.scheduler,
            self.network,
            popularity=popularity,
            telemetry=self.telemetry,
        )
        self.adopt_system(system)

    def adopt_system(self, system: DisseminationSystem) -> None:
        """Host an externally built system: share its state, observe deliveries.

        The host's ledger, delivery log, and subscription table become the
        system's own (so live fairness/reliability reports read the real
        data), and the host's latency/delivery metrics hook into every
        application-facing node.
        """
        self.system = system
        self.ledger = system.ledger
        self._delivery_log = system.delivery_log
        self.subscriptions = system.subscriptions
        self.topology = system.topology
        self.registry = system.registry
        self.nodes = dict(system.client_nodes())
        for node in self.nodes.values():
            node.add_delivery_callback(self._record_delivery)

    async def stop(self) -> None:
        """Stop all timers and tear the transport down.

        An active snapshot scheduler emits one final snapshot (so the
        artifact always covers the full run) before the timers die.
        """
        if not self._started:
            return
        self._started = False
        # Final snapshot first, controller second: a run that ends while a
        # partition/perturbation is still active must report it that way
        # (the controller's stop() clears live network faults and zeroes
        # their gauges).
        if self.snapshot_scheduler is not None:
            self.snapshot_scheduler.stop(final=True)
            self.snapshot_scheduler = None
        if self.fault_controller is not None:
            self.fault_controller.stop()
            self.fault_controller = None
        self.scheduler.shutdown()
        await self.transport.stop()

    # ----------------------------------------------------------- operations

    def publish(self, publisher_id: str, event: Optional[Event] = None, **attributes) -> Event:
        """Publish an event from ``publisher_id`` (same API as GossipSystem)."""
        if self.system is not None:
            event = self.system.publish(publisher_id, event=event, **attributes)
        else:
            event = self._stamp(publisher_id, event, attributes)
            self.nodes[publisher_id].publish(event)
        self._published_counter.increment()
        return event

    def subscribe(
        self,
        node_id: str,
        subscription_filter: Filter,
        callbacks: Sequence[DeliveryCallback] = (),
    ) -> None:
        if self.system is not None:
            self.system.subscribe(node_id, subscription_filter, callbacks=callbacks)
        else:
            added = self.nodes[node_id].subscribe(subscription_filter)
            self._subscribed(node_id, subscription_filter, callbacks, record=added)

    def unsubscribe(self, node_id: str, subscription_filter: Filter) -> None:
        if self.system is not None:
            self.system.unsubscribe(node_id, subscription_filter)
        elif self.nodes[node_id].unsubscribe(subscription_filter):
            self._unsubscribed(node_id, subscription_filter)

    # -------------------------------------------------------------- control

    def _handle_control(self, message) -> None:
        """Apply a ``runtime.*`` control frame addressed to a hosted node."""
        if message.recipient not in self.nodes:
            return
        if message.kind == PUBLISH_KIND:
            self.publish(message.recipient, event=message.payload)
        elif message.kind == SUBSCRIBE_KIND:
            self.subscribe(message.recipient, message.payload)
        elif message.kind == UNSUBSCRIBE_KIND:
            self.unsubscribe(message.recipient, message.payload)

    # -------------------------------------------------------------- metrics

    def _record_delivery(self, node_id: str, event: Event) -> None:
        latency_units = max(0.0, self.scheduler.now - event.published_at)
        self._latency_histogram.observe(latency_units)
        self._deliveries_counter.increment()
        if self.topology is not None:
            domain = self.topology.domain(node_id)
            if domain is not None:
                self.telemetry.observe(
                    DELIVERY_LATENCY_METRIC, latency_units, domain=domain
                )

    def _collect_telemetry(self) -> None:
        """Refresh derived gauges right before a snapshot is frozen."""
        self.telemetry.set_gauge("rt.time_units", self.scheduler.now)
        self.telemetry.set_gauge("rt.nodes", len(self.nodes))
        publish_fairness_gauges(self.telemetry, self.ledger, self.policy, self.topology)

    # -------------------------------------------------------------- queries

    def fairness_summary(self, system_name: Optional[str] = None) -> SystemFairnessSummary:
        """Fairness summary of everything recorded so far (live-readable)."""
        return summarise_fairness(
            self.ledger, policy=self.policy, system_name=system_name or self.name
        )
