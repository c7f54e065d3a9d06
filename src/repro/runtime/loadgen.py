"""Load generation for live clusters.

The :class:`LoadGenerator` paces publications into a
:class:`~repro.runtime.host.NodeHost` at a target events-per-second.  *What*
gets published is the simulator's business: the generator is handed the
same workload object a simulated run of the spec builds
(:func:`~repro.registry.builtins.build_workload` — topic or content events,
publisher rotation, event size, the named RNG stream) and only decides
*when* its next publication happens on the wall clock.  Pacing uses catch-up
ticks: each tick publishes however many events the target rate says should
have been published by now, so a slow tick is repaid on the next one instead
of silently lowering the rate.

Throughput and latency land in the host's
:class:`~repro.telemetry.Telemetry` store (the same instruments the
simulator uses), and the published events are recorded in the workload's
:class:`~repro.workloads.publications.PublicationSchedule` so the existing
reliability analysis works on live runs unchanged.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict

from ..core.fairness import FairnessReport
from ..jsonio import encode
from . import RUNTIME_ARTIFACT_SCHEMA
from .host import DELIVERIES_METRIC, DELIVERY_LATENCY_METRIC, NodeHost

__all__ = ["LoadGenerator", "LoadReport", "RuntimeArtifact", "RUNTIME_ARTIFACT_SCHEMA"]


@dataclass(frozen=True)
class LoadReport:
    """Throughput and latency of one load-generation run, taken after its drain.

    Publication throughput is measured over the load window alone; deliveries
    recorded during the drain belong to that load, so the delivery rate's
    window includes the drain.
    """

    offered_rate: float
    published: int
    elapsed_seconds: float
    events_per_second: float
    deliveries: int
    deliveries_per_second: float
    latency_p50_seconds: float
    latency_p95_seconds: float
    latency_p99_seconds: float
    latency_mean_seconds: float

    def describe(self) -> str:
        """One status line for the CLI."""
        return (
            f"offered {self.offered_rate:.0f} ev/s | achieved {self.events_per_second:.0f} ev/s "
            f"({self.published} events in {self.elapsed_seconds:.2f}s) | "
            f"{self.deliveries} deliveries ({self.deliveries_per_second:.0f}/s) | "
            f"latency p50 {self.latency_p50_seconds * 1000:.1f}ms "
            f"p99 {self.latency_p99_seconds * 1000:.1f}ms"
        )


@dataclass(frozen=True)
class RuntimeArtifact:
    """The ``--json`` artifact of ``serve`` / ``loadgen`` (``rt-load/v1``)."""

    transport: str
    scenario: str
    system: str
    nodes: int
    seed: int
    time_scale: float
    duration_seconds: float
    load: LoadReport
    delivery_ratio: float
    fairness: FairnessReport
    frames_sent: int
    bytes_sent: int

    def to_dict(self) -> Dict[str, object]:
        return {"schema": RUNTIME_ARTIFACT_SCHEMA, **encode(self)}


#: Pacing granularity in real seconds; smaller ticks smooth the arrival
#: process at the cost of more loop wakeups.
TICK_SECONDS = 0.02


class LoadGenerator:
    """Publishes a workload into a live host at a target real-time rate.

    Parameters
    ----------
    host:
        The cluster to drive.
    rate:
        Target publications per real second.
    workload:
        A publication workload built over ``host`` and ``host.scheduler``
        (see :mod:`repro.workloads.publications`); each publication is one
        call of its ``_publish_one``, the step a simulator schedules.
    """

    def __init__(self, host: NodeHost, rate: float, workload) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.host = host
        self.rate = float(rate)
        self.workload = workload
        self.schedule = workload.schedule

    # ---------------------------------------------------------------- drive

    async def run(self, duration_seconds: float, drain_seconds: float = 0.0) -> LoadReport:
        """Publish at the target rate for ``duration_seconds`` of real time.

        The report is taken after a further ``drain_seconds`` in which
        in-flight events settle.
        """
        if duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        delivered = self.host.telemetry.counter(DELIVERIES_METRIC)
        deliveries_before = delivered.value
        started = time.monotonic()
        published = 0
        target_total = self.rate * duration_seconds
        while True:
            elapsed = time.monotonic() - started
            if elapsed >= duration_seconds:
                break
            due = min(int(self.rate * elapsed), int(target_total)) - published
            for _ in range(max(due, 0)):
                self.workload._publish_one()
                published += 1
            await asyncio.sleep(TICK_SECONDS)
        elapsed = time.monotonic() - started
        drain_seconds = max(drain_seconds, 0.0)
        await asyncio.sleep(drain_seconds)
        deliveries = int(delivered.value - deliveries_before)
        latency = self.host.telemetry.histogram(DELIVERY_LATENCY_METRIC).summary()
        seconds = self.host.clock.units_to_seconds
        window = elapsed + drain_seconds
        return LoadReport(
            offered_rate=self.rate,
            published=published,
            elapsed_seconds=elapsed,
            events_per_second=published / elapsed if elapsed > 0 else 0.0,
            deliveries=deliveries,
            deliveries_per_second=deliveries / window if window > 0 else 0.0,
            latency_p50_seconds=seconds(latency.p50),
            latency_p95_seconds=seconds(latency.p95),
            latency_p99_seconds=seconds(latency.p99),
            latency_mean_seconds=seconds(latency.mean),
        )
