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
from typing import Dict

from ..telemetry import HistogramSummary
from .host import DELIVERIES_METRIC, DELIVERY_LATENCY_METRIC, NodeHost

__all__ = ["LoadGenerator", "LoadReport"]


class LoadReport:
    """Measured throughput and latency of one load-generation run."""

    def __init__(
        self,
        offered_rate: float,
        published: int,
        elapsed_seconds: float,
        deliveries: int,
        latency_seconds: HistogramSummary,
        drain_seconds: float = 0.0,
    ) -> None:
        self.offered_rate = offered_rate
        self.published = published
        self.elapsed_seconds = elapsed_seconds
        self.deliveries = deliveries
        self.latency_seconds = latency_seconds
        #: Extra settle time after the load stopped.  Publication throughput
        #: is measured over the load window alone, but deliveries recorded
        #: during the drain belong to that load, so the delivery-rate
        #: denominator includes it.
        self.drain_seconds = drain_seconds

    @property
    def events_per_second(self) -> float:
        """Achieved publication throughput (events per real second)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.published / self.elapsed_seconds

    @property
    def deliveries_per_second(self) -> float:
        """Achieved delivery throughput (deliveries per real second)."""
        window = self.elapsed_seconds + self.drain_seconds
        if window <= 0:
            return 0.0
        return self.deliveries / window

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (used by the CLI and the benchmark)."""
        return {
            "offered_rate": self.offered_rate,
            "published": self.published,
            "elapsed_seconds": self.elapsed_seconds,
            "events_per_second": self.events_per_second,
            "deliveries": self.deliveries,
            "deliveries_per_second": self.deliveries_per_second,
            "latency_p50_seconds": self.latency_seconds.p50,
            "latency_p95_seconds": self.latency_seconds.p95,
            "latency_p99_seconds": self.latency_seconds.p99,
            "latency_mean_seconds": self.latency_seconds.mean,
        }

    def describe(self) -> str:
        """One status line for the CLI."""
        latency = self.latency_seconds
        return (
            f"offered {self.offered_rate:.0f} ev/s | achieved {self.events_per_second:.0f} ev/s "
            f"({self.published} events in {self.elapsed_seconds:.2f}s) | "
            f"{self.deliveries} deliveries ({self.deliveries_per_second:.0f}/s) | "
            f"latency p50 {latency.p50 * 1000:.1f}ms p99 {latency.p99 * 1000:.1f}ms"
        )


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

    async def run(self, duration_seconds: float) -> LoadReport:
        """Publish at the target rate for ``duration_seconds`` of real time."""
        if duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        deliveries_before = self.host.telemetry.counter_value(DELIVERIES_METRIC)
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
        deliveries = self.host.telemetry.counter_value(DELIVERIES_METRIC) - deliveries_before
        return LoadReport(
            offered_rate=self.rate,
            published=published,
            elapsed_seconds=elapsed,
            deliveries=int(deliveries),
            latency_seconds=self.latency_summary_seconds(),
        )

    # -------------------------------------------------------------- reports

    def latency_summary_seconds(self) -> HistogramSummary:
        """Delivery latency summary converted from time units to seconds."""
        units = self.host.telemetry.histogram_summary(DELIVERY_LATENCY_METRIC)
        convert = self.host.clock.units_to_seconds
        return HistogramSummary(
            count=units.count,
            mean=convert(units.mean),
            minimum=convert(units.minimum),
            maximum=convert(units.maximum),
            stddev=convert(units.stddev),
            p50=convert(units.p50),
            p95=convert(units.p95),
            p99=convert(units.p99),
        )
