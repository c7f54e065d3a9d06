"""CLI subcommands for the live runtime: ``serve`` and ``loadgen``.

``python -m repro serve`` brings up a live cluster on a chosen transport,
drives it with an embedded load generator, and prints a live fairness report
while it runs.  ``python -m repro loadgen`` runs the same cluster but
focuses on load numbers: it prints (and optionally writes as JSON) the
achieved events/sec, delivery latency percentiles, delivery ratio, and the
fairness headline.

Both commands build from the same declarative vocabulary as the simulator:
``--scenario NAME`` (default: the ``live`` scenario) resolves a registered
scenario to its :class:`~repro.registry.specs.StackSpec`, ``--set
system.kind=brokers`` style dotted overrides adjust it
(:func:`repro.cli.resolve_spec`), and the host builds *any* registered
system — gossip or baseline — through the component registry
(:func:`repro.registry.builtins.build_stack`), so every scenario the
simulator can run also runs live.  There is no live-only option for a spec
field: a gossip node's buffer is ``--set system.buffer_capacity=4000 --set
system.selection_strategy=least-forwarded``, as on the simulator.

A live run and a simulated run of one spec therefore build the same nodes
and are directly comparable — the property the runtime-vs-simulator parity
test checks.
"""

from __future__ import annotations

import argparse
import asyncio
from typing import TYPE_CHECKING, NamedTuple, Optional

from ..cli import add_stack_options, parse_tracer, resolve_spec, write_artifact
from ..experiments.scenarios import LIVE_SCENARIO
from ..registry.builtins import build_interest_model, build_popularity, build_workload
from ..registry.specs import StackSpec

if TYPE_CHECKING:  # annotations only: the commands import the runtime when they run
    from ..workloads.interest import InterestAssignment
    from .host import NodeHost
    from .loadgen import LoadGenerator, RuntimeArtifact
    from .transport import Transport

__all__ = ["add_runtime_subcommands", "build_live_cluster", "LiveCluster"]

TRANSPORT_NAMES = ("memory", "udp", "tcp")


class LiveCluster(NamedTuple):
    """A built-but-not-started live cluster and its workload."""

    host: NodeHost
    generator: LoadGenerator
    #: The host creates its nodes on ``start()``, so interest is applied
    #: afterwards.
    interest: InterestAssignment
    spec: StackSpec


def _build_transport(args: argparse.Namespace) -> Transport:
    from .transport import MemoryTransport, TcpTransport, UdpTransport

    if args.transport == "memory":
        return MemoryTransport()
    if args.transport == "udp":
        return UdpTransport(bind_host=args.bind_host, bind_port=args.bind_port)
    if args.transport == "tcp":
        return TcpTransport(bind_host=args.bind_host, bind_port=args.bind_port)
    raise SystemExit(f"unknown transport {args.transport!r}; expected one of {TRANSPORT_NAMES}")


def build_live_cluster(
    spec: StackSpec, transport: Transport, time_scale: float, rate: float, tracer=None
) -> LiveCluster:
    """Build (but do not start) a host, its load generator, and interests.

    Everything follows from the spec the way :func:`run_experiment` derives
    it — system, policy, interest assignment and publication workload come
    from the component registry and draw from the streams of the same names
    — so a live cluster and a simulated run of one spec are assigned the
    same interests and publish the same events in the same order.
    """
    from .host import NodeHost
    from .loadgen import LoadGenerator

    host = NodeHost(transport, seed=spec.seed, time_scale=time_scale, spec=spec, tracer=tracer)
    popularity = build_popularity(spec)
    interest_model = build_interest_model(spec, popularity)
    interest = interest_model.assign(
        list(spec.node_ids()), host.scheduler.rng.stream("experiment-interest")
    )
    workload = build_workload(
        spec, host, host.scheduler, popularity, list(spec.publisher_ids()), interest_model
    )
    return LiveCluster(host, LoadGenerator(host, rate, workload), interest, spec)


def _cluster_from_args(args: argparse.Namespace) -> LiveCluster:
    """The cluster a ``serve`` / ``loadgen`` command line describes."""
    positive = (("--rate", args.rate), ("--duration", args.duration), ("--time-scale", args.time_scale))
    for flag, value in positive:
        if value <= 0:
            raise SystemExit(f"{flag} must be positive, got {value!r}")
    if args.drain < 0:
        raise SystemExit(f"--drain must be non-negative, got {args.drain!r}")
    spec = resolve_spec(args, live=True)
    return build_live_cluster(
        spec, _build_transport(args), args.time_scale, args.rate, parse_tracer(args)
    )


async def _run_live(args: argparse.Namespace, live_report: bool) -> RuntimeArtifact:
    from ..analysis.reliability import measure_reliability
    from ..faults.plan import FaultPlanError
    from .host import DELIVERIES_METRIC, PUBLISHED_METRIC
    from .loadgen import RuntimeArtifact

    cluster = _cluster_from_args(args)
    host, generator = cluster.host, cluster.generator
    try:
        await host.start()
    except FaultPlanError as error:
        # An unsatisfiable fault plan (e.g. unknown node ids against the
        # built cluster) is a usage error, not a crash; the host already
        # tore itself down.
        raise SystemExit(str(error))
    cluster.interest.apply(host)
    reporter: Optional[asyncio.Task] = None
    if live_report:

        async def report_loop() -> None:
            started = asyncio.get_running_loop().time()
            while True:
                await asyncio.sleep(args.report_interval)
                elapsed = asyncio.get_running_loop().time() - started
                published = host.telemetry.counter(PUBLISHED_METRIC).value
                deliveries = host.telemetry.counter(DELIVERIES_METRIC).value
                fairness = host.fairness_summary().report
                print(
                    f"[serve +{elapsed:5.1f}s] published {published:8.0f} "
                    f"({published / max(elapsed, 1e-9):7.0f} ev/s) | "
                    f"deliveries {deliveries:9.0f} | "
                    f"ratio Jain {fairness.ratio_jain:.3f} | "
                    f"wasted share {fairness.wasted_share:.3f}",
                    flush=True,
                )

        reporter = asyncio.get_running_loop().create_task(report_loop())

    try:
        load = await generator.run(args.duration, args.drain)
    finally:
        if reporter is not None:
            reporter.cancel()
        await host.stop()
        if host.tracer is not None:
            host.tracer.close()

    summary = host.fairness_summary(system_name=f"live/{args.transport}")
    reliability = measure_reliability(
        generator.schedule.events,
        host.delivery_log,
        host.subscriptions,
        round_period=cluster.spec.system.round_period,
    )
    print()
    print(summary.render())
    print()
    print(load.describe())
    print(
        f"delivery ratio {reliability.delivery_ratio:.3f} | "
        f"complete fraction {reliability.complete_fraction:.3f} | "
        f"transport {args.transport} ({host.transport.frames_sent} frames, "
        f"{host.transport.bytes_sent} bytes sent, {host.transport.send_failures} send failures, "
        f"{host.network.decode_errors} decode errors)"
    )
    if host.tracer is not None:
        print(
            f"trace: {host.tracer.spans_emitted} span(s) "
            f"at sample rate {host.tracer.sample_rate} -> {args.trace}"
        )
    return RuntimeArtifact(
        transport=args.transport,
        scenario=args.scenario,
        system=host.system.name,
        nodes=len(host.nodes),
        seed=cluster.spec.seed,
        time_scale=args.time_scale,
        duration_seconds=args.duration,
        load=load,
        delivery_ratio=reliability.delivery_ratio,
        fairness=summary.report,
        frames_sent=host.transport.frames_sent,
        bytes_sent=host.transport.bytes_sent,
    )


def _cmd_live(args: argparse.Namespace) -> int:
    """``serve`` (with live report lines) and ``loadgen`` (without)."""
    artifact = asyncio.run(_run_live(args, live_report=args.command == "serve"))
    if args.json:
        write_artifact(args.json, artifact.to_dict())
        print(f"wrote runtime artifact to {args.json}")
    return 0


def _add_common_runtime_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        default=LIVE_SCENARIO,
        metavar="NAME",
        help="build the cluster from a registered scenario's StackSpec (any "
        f"registered system runs live; see list-scenarios; default: {LIVE_SCENARIO})",
    )
    add_stack_options(parser)
    parser.add_argument(
        "--transport",
        default="memory",
        choices=TRANSPORT_NAMES,
        help="frame carrier (default: memory)",
    )
    parser.add_argument(
        "--duration", type=float, default=5.0, help="load duration in real seconds (default: 5)"
    )
    parser.add_argument(
        "--rate", type=float, default=1500.0, help="target publications per second (default: 1500)"
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=20.0,
        help="protocol time units per real second; a round_period of 1.0 at "
        "time-scale 20 is a 50ms gossip round (default: 20)",
    )
    parser.add_argument(
        "--drain",
        type=float,
        default=1.0,
        help="extra real seconds after the load stops so in-flight events settle",
    )
    parser.add_argument("--bind-host", default="127.0.0.1", help="socket transports: bind host")
    parser.add_argument(
        "--bind-port", type=int, default=0, help="socket transports: bind port (0 = ephemeral)"
    )
    parser.add_argument("--json", default=None, metavar="PATH", help="write the run artifact")


def add_runtime_subcommands(subparsers) -> None:
    """Register ``serve`` and ``loadgen`` on the ``python -m repro`` parser."""
    serve_parser = subparsers.add_parser(
        "serve",
        help="run a live cluster on a real transport with an embedded load generator",
    )
    _add_common_runtime_options(serve_parser)
    serve_parser.add_argument(
        "--report-interval",
        type=float,
        default=1.0,
        help="seconds between live fairness report lines (default: 1)",
    )
    serve_parser.set_defaults(handler=_cmd_live)

    loadgen_parser = subparsers.add_parser(
        "loadgen",
        help="drive a live cluster at a target events/sec and report throughput/latency",
    )
    _add_common_runtime_options(loadgen_parser)
    loadgen_parser.set_defaults(handler=_cmd_live)
