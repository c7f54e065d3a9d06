"""Experiment runner: config in, measured result out.

One call to :func:`run_experiment` performs a complete simulated experiment:

1. build the simulator, network, and dissemination system;
2. assign interests (subscriptions) according to the workload model;
3. start the publication workload, the fault plan compiled from the config
   (node churn, crash schedules, partitions, link perturbation), and
   subscription churn if configured;
4. run the simulation for the configured duration and drain window;
5. measure fairness (per the configured policy) and reliability, and return
   everything in an :class:`ExperimentResult`.

The benchmarks under ``benchmarks/`` are thin loops over configs calling
this function and tabulating the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis.fairness_report import SystemFairnessSummary, publish_fairness_gauges, summarise_fairness
from ..analysis.reliability import ReliabilityReport, measure_reliability
from ..faults.plan import FaultPlan
from ..pubsub.events import Event
from ..telemetry.facade import Telemetry
from ..telemetry.snapshot import SnapshotScheduler, TelemetrySnapshot
from ..registry.builtins import build_workload
from ..registry.specs import StackSpec
from ..workloads.interest import InterestAssignment
from .config import ExperimentConfig
from .scenarios import build_interest, build_popularity, build_simulation, build_system, resolve_policy

__all__ = ["ExperimentResult", "run_experiment"]


@dataclass
class ExperimentResult:
    """Everything measured in one experiment run."""

    config: ExperimentConfig
    fairness: SystemFairnessSummary
    reliability: ReliabilityReport
    published_events: List[Event]
    interest: InterestAssignment
    total_messages: float
    total_deliveries: int
    system: object = field(repr=False, default=None)
    #: The run's final telemetry snapshot.  Like ``system`` it is a live
    #: extra, not part of the artifact: ``to_dict`` skips it (cache identity
    #: is untouched) and it is excluded from equality so cache-loaded and
    #: freshly computed results still compare equal.
    final_snapshot: Optional[TelemetrySnapshot] = field(
        repr=False, compare=False, default=None
    )

    @property
    def delivery_ratio(self) -> float:
        """Fraction of oracle-interested (node, event) pairs actually delivered."""
        return self.reliability.delivery_ratio

    def summary_row(self) -> Dict[str, float]:
        """One flat dictionary combining fairness and reliability headline numbers."""
        row = {"name": self.config.name, "system": self.config.system, "nodes": self.config.nodes}
        row.update(self.fairness.report.summary_row())
        row.update(self.reliability.summary_row())
        row["total_messages"] = self.total_messages
        return row

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable artifact; inverse of :meth:`from_dict`.

        The live ``system`` object is never serialized: a result loaded from
        disk always carries ``system=None``, which is why cache-backed
        executors recompute runs that need ``keep_system``.  Skipping those
        live extras (and the hand-written event / interest codecs below) is
        why this is spelled out rather than one ``jsonio.encode``.
        """
        return {
            "config": self.config.to_dict(),
            "fairness": self.fairness.to_dict(),
            "reliability": self.reliability.to_dict(),
            "published_events": [event.to_dict() for event in self.published_events],
            "interest": self.interest.to_dict(),
            "total_messages": self.total_messages,
            "total_deliveries": self.total_deliveries,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "ExperimentResult":
        """Rebuild a result (without the live system) from :meth:`to_dict` output."""
        return ExperimentResult(
            config=ExperimentConfig.from_dict(payload["config"]),
            fairness=SystemFairnessSummary.from_dict(payload["fairness"]),
            reliability=ReliabilityReport.from_dict(payload["reliability"]),
            published_events=[Event.from_dict(entry) for entry in payload.get("published_events", [])],
            interest=InterestAssignment.from_dict(payload["interest"]),
            total_messages=float(payload["total_messages"]),
            total_deliveries=int(payload["total_deliveries"]),
            system=None,
        )


def _telemetry_collector(simulator, system, policy, telemetry: Telemetry):
    """Build the collect hook refreshing derived gauges before a snapshot.

    Everything recorded here is *read* from the shared ledger/delivery log —
    no RNG draws, no scheduling — so enabling telemetry cannot perturb the
    simulation (the determinism contract of ``docs/ARCHITECTURE.md``).
    Delivery latencies stream incrementally into the bounded
    ``sim.delivery_latency`` histogram (each tick only ingests deliveries
    that arrived since the previous tick).

    Under a multi-domain topology (``system.topology``) every delivery also
    lands in a ``domain=``-tagged ``sim.delivery_latency`` histogram.  The
    fairness gauges come from
    :func:`~repro.analysis.fairness_report.publish_fairness_gauges`, the same
    call the live host makes.
    """
    topology = getattr(system, "topology", None)
    latency_histogram = telemetry.histogram("sim.delivery_latency")
    domain_histograms = {}
    if topology is not None:
        domain_histograms = {
            name: telemetry.histogram("sim.delivery_latency", domain=name)
            for name in topology.domain_map.domains
        }
    consumed = 0

    def collect() -> None:
        nonlocal consumed
        log = system.delivery_log
        for node_id, latency in log.latencies_since(consumed):
            latency_histogram.observe(latency)
            if domain_histograms:
                domain = topology.domain(node_id)
                if domain is not None:
                    domain_histograms[domain].observe(latency)
        consumed = log.total_deliveries()
        totals = system.ledger.totals()
        total_messages = (
            totals.gossip_messages_sent
            + totals.infrastructure_messages
            + totals.subscription_forwards
        )
        telemetry.set_gauge("sim.time", simulator.now)
        telemetry.set_gauge("sim.deliveries", system.delivery_log.total_deliveries())
        telemetry.set_gauge("sim.messages.gossip", totals.gossip_messages_sent)
        telemetry.set_gauge("sim.messages.infrastructure", totals.infrastructure_messages)
        telemetry.set_gauge(
            "sim.messages.subscription_forwards", totals.subscription_forwards
        )
        telemetry.set_gauge("sim.messages.total", total_messages)
        publish_fairness_gauges(telemetry, system.ledger, policy, topology)

    return collect


def run_experiment(
    config: ExperimentConfig,
    keep_system: bool = False,
    telemetry: Optional[Telemetry] = None,
    snapshot_sinks: Optional[Sequence] = None,
    snapshot_period: Optional[float] = None,
    tracer=None,
) -> ExperimentResult:
    """Run one experiment described by ``config`` and return its measurements.

    ``keep_system`` attaches the live system object to the result, which the
    adaptive-controller benchmarks use to inspect per-node controller
    histories after the run; it is off by default to keep results small.

    ``snapshot_sinks`` (sink objects or ``"jsonl:path"``-style specs) enable
    periodic telemetry snapshots every ``snapshot_period`` simulated time
    units during the run; with or without sinks the result's headline totals
    are read from the run's *final* snapshot, which is attached as
    ``result.final_snapshot``.

    ``tracer`` (a :class:`~repro.tracing.Tracer`) enables causal
    dissemination tracing on gossip-family systems.  Like telemetry it only
    *reads* — span emission draws no RNG and schedules nothing — so a traced
    run's physics are identical to an untraced one.  Tracing is deliberately
    not part of ``config`` (cache keys are untouched by construction), which
    is why traced runs bypass the result cache.
    """
    simulator, network = build_simulation(config)
    if telemetry is None:
        telemetry = Telemetry()
    popularity = build_popularity(config)
    system = build_system(
        config, simulator, network, popularity=popularity, telemetry=telemetry
    )
    if tracer is not None:
        system.attach_tracer(tracer)
    interest_model = build_interest(config, popularity)
    rng = simulator.rng.stream("experiment-interest")
    interest = interest_model.assign(list(config.node_ids()), rng)
    interest.apply(system)

    spec = StackSpec.from_config(config)
    publishers = list(config.publisher_ids())
    workload = build_workload(spec, system, simulator, popularity, publishers, interest_model)
    workload.start(duration=config.duration, start_at=config.round_period)

    plan = FaultPlan.from_spec(spec)
    fault_controller = None
    if not plan.is_empty():
        from ..faults.controller import FaultController

        fault_controller = FaultController.for_system(
            system, plan, telemetry=telemetry, total_time=config.total_time
        )
        fault_controller.start()

    if config.subscription_churn_rate > 0:
        from ..workloads.churn import SubscriptionChurnWorkload

        churners = list(config.node_ids())[len(publishers):] or list(config.node_ids())
        subscription_churn = SubscriptionChurnWorkload(
            system,
            simulator,
            popularity,
            churners,
            operations_per_unit=config.subscription_churn_rate,
        )
        subscription_churn.start(duration=config.duration, start_at=config.round_period)

    policy = resolve_policy(config)
    collect = _telemetry_collector(simulator, system, policy, telemetry)
    scheduler = SnapshotScheduler.attach(
        telemetry, snapshot_sinks, snapshot_period, simulator, collect=collect
    )

    simulator.run(until=config.total_time)

    # Final snapshot before stopping the fault controller: a run that ends
    # mid-partition (or with an open-ended perturbation) must report the
    # fault as active, and stop() clears live network faults and gauges.
    if scheduler is not None:
        final_snapshot = scheduler.stop(final=True)
    else:
        collect()
        final_snapshot = telemetry.snapshot(at=simulator.now)
    if fault_controller is not None:
        fault_controller.stop()

    fairness = summarise_fairness(system.ledger, policy=policy, system_name=config.name)
    reliability = measure_reliability(
        workload.schedule.events,
        system.delivery_log,
        system.subscriptions,
        round_period=config.round_period,
    )
    return ExperimentResult(
        config=config,
        fairness=fairness,
        reliability=reliability,
        published_events=list(workload.schedule.events),
        interest=interest,
        total_messages=final_snapshot.gauge_value("sim.messages.total"),
        total_deliveries=int(final_snapshot.gauge_value("sim.deliveries")),
        system=system if keep_system else None,
        final_snapshot=final_snapshot,
    )
