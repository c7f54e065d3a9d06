"""``python -m repro``: the root parser and the one way from arguments to a stack.

Subcommands
-----------
``run``            run one named scenario (with optional field overrides)
``sweep``          run a scenario across one parameter axis
``compare``        run a scenario across several dissemination systems
``list-scenarios`` show the named-scenario registry
``describe``       show a scenario's resolved spec or a component's schema
``report``         render fairness/reliability/latency tables from artifacts
``trace``          reconstruct per-event infection trees from a --trace stream
``campaign``       run a declarative experiment campaign incrementally
                   (``campaign status SPEC.json`` shows fresh/stale marks)
``serve``          run a *live* cluster on a real transport (asyncio runtime)
``loadgen``        drive a live cluster at a target events/sec

The simulator commands live in :mod:`repro.experiments.cli`, ``campaign`` in
:mod:`repro.campaign.cli` and the live commands in :mod:`repro.runtime.cli`;
each installs its subparsers on the parser built here.

Every command that builds a stack reaches it the same way: a registered
scenario names a :class:`~repro.registry.specs.StackSpec`, ``--set
path=value`` overrides adjust it by dotted spec path (``system.fanout=5``,
``membership.kind=lpbcast``) — the only command-line spelling of a spec
field — ``--fault`` and ``--topology`` files merge into it, and the
validated spec is handed to the engine.  :func:`add_stack_options` declares
those options once and :func:`resolve_spec` is the one function that turns
parsed arguments into that spec; ``run`` builds it on the simulator,
``serve``/``loadgen`` on the live runtime.

``sweep`` and ``compare`` are one-service campaigns: they describe a
:class:`~repro.campaign.spec.ServiceSpec` (scenario, ``--set`` overrides,
one sweep axis or a list of systems), validate and expand it exactly as a
campaign service is, and run the points on the same executor — so a grid
point has the same name and cache key whichever of the three asked for it.
:func:`add_orchestration_options` declares the executor options of ``run``,
``sweep``, ``compare`` and ``campaign`` once, and :func:`build_executor`
turns them into the executor.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, Optional, Sequence

from .faults.plan import FaultPlan, FaultPlanError
from .jsonio import write_json
from .registry.base import RegistryError
from .registry.specs import StackSpec, parse_spec_overrides
from .topology.spec import TopologyError, TopologySpec

if TYPE_CHECKING:  # annotations only: build_executor imports it when called
    from .experiments.executor import ParallelSweepExecutor

__all__ = [
    "main",
    "build_parser",
    "add_stack_options",
    "add_orchestration_options",
    "build_executor",
    "resolve_spec",
    "parse_tracer",
    "write_artifact",
]

def add_stack_options(parser: argparse.ArgumentParser, set_only: bool = False) -> None:
    """Declare the options every stack-building command shares.

    ``set_only`` stops after ``--set`` for the grid commands (``sweep``,
    ``compare``), which take overrides but run no single stack to attach a
    fault file, a sink or a tracer to.
    """
    parser.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="override any spec field by dotted path (system.kind=brokers, "
        "system.fanout=5, membership.kind=lpbcast); repeatable",
    )
    if set_only:
        return
    parser.add_argument(
        "--fault",
        default=None,
        metavar="PLAN.json",
        help="inject a declarative fault plan (crash/churn/partition/perturb "
        "entries); the same file drives the simulator and a live cluster, and "
        "its entries become part of the spec and its cache key",
    )
    parser.add_argument(
        "--topology",
        default=None,
        metavar="TOPO.json",
        help="load a multi-domain topology spec (domains, bridge policy, geo "
        "latency/loss matrix); the same file drives the simulator and a live "
        "cluster, and its fields become part of the spec and its cache key",
    )
    parser.add_argument(
        "--telemetry",
        action="append",
        metavar="SINK",
        help="stream periodic telemetry snapshots to a sink "
        "(jsonl:PATH, csv:PATH, prom:PATH, memory); repeatable; a simulator "
        "run with a sink executes in-process and bypasses the cache",
    )
    parser.add_argument(
        "--telemetry-period",
        type=float,
        default=None,
        metavar="UNITS",
        help="snapshot period in protocol time units (default: 5.0; on a live "
        "cluster at --time-scale 20 that is one snapshot every 0.25s)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="TRACE.jsonl",
        help="record causal dissemination spans to a JSON-lines file (render "
        "with `python -m repro trace TRACE.jsonl`); a traced simulator run "
        "executes in-process and bypasses the cache",
    )
    parser.add_argument(
        "--trace-sample-rate",
        type=float,
        default=None,
        metavar="RATE",
        help="fraction of published events to trace, decided "
        "deterministically per event id (default with --trace: 1.0)",
    )


def resolve_spec(args: argparse.Namespace, live: bool = False) -> StackSpec:
    """The validated spec a command builds: scenario, overrides, files, in that order.

    The scenario's spec takes the ``--set`` overrides, then the ``--fault``
    entries (appended to whatever the scenario's faults section already
    declares) and the ``--topology`` file, then the ``--telemetry`` sinks.
    The merged fault plan is validated and the domain map compiled here, so
    every mistake a command line can make is a one-line ``SystemExit``
    before anything is built.

    The node universe is deliberately NOT pinned: plans may target a
    system's infra nodes (``broker-0``, rendezvous nodes), which only exist
    once the system is built — the engines validate against the built
    registry.  ``live`` runs have no simulated end, so only simulator runs
    reject fault entries that start after ``spec.total_time``.
    """
    from .experiments.scenarios import get_scenario
    from .topology.domains import compile_domain_map

    try:
        spec = get_scenario(args.scenario).spec
    except KeyError as error:
        # str(KeyError) wraps the message in quotes; unwrap for clean CLI output.
        raise SystemExit(error.args[0])
    try:
        spec = spec.with_values(parse_spec_overrides(args.set or []))
        if getattr(args, "fault", None):
            plan = FaultPlan.from_file(args.fault)
            spec = spec.with_value("faults.plan", spec.faults.plan + plan.entry_pairs())
        if getattr(args, "topology", None):
            spec = replace(spec, topology=TopologySpec.from_file(args.topology))
        FaultPlan.from_flat(spec.to_config()).validate(
            total_time=None if live else spec.total_time
        )
        if spec.topology.enabled:
            compile_domain_map(spec.topology, spec.node_ids())
    except (RegistryError, FaultPlanError, TopologyError) as error:
        raise SystemExit(str(error))
    period = getattr(args, "telemetry_period", None)
    if period is not None and period <= 0:
        raise SystemExit("--telemetry-period must be positive")
    sinks = getattr(args, "telemetry", None)
    if sinks:
        spec = spec.with_telemetry(sinks, period=period)
        try:
            spec.telemetry.build_sinks()
        except ValueError as error:
            raise SystemExit(str(error))
    elif period is not None:
        raise SystemExit("--telemetry-period has no effect without --telemetry")
    return spec


def add_orchestration_options(parser: argparse.ArgumentParser, scenario: bool = True) -> None:
    """Declare the executor options of ``run``, ``sweep``, ``compare`` and ``campaign``.

    ``scenario`` adds the positional scenario and ``--json`` of the
    scenario commands; ``campaign`` names a spec file and writes its own
    target artifacts instead.
    """
    from .experiments.cache import DEFAULT_CACHE_DIR

    if scenario:
        parser.add_argument(
            "scenario",
            nargs="?",
            default="base",
            help="named scenario to start from (see list-scenarios; default: base)",
        )
        parser.add_argument(
            "--json", default=None, metavar="PATH", help="write result artifacts as JSON"
        )
    parser.add_argument("--workers", type=int, default=1, help="worker processes (default: 1)")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"result cache directory (default: $REPRO_CACHE_DIR or {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache (every point recomputes)",
    )


def build_executor(args: argparse.Namespace) -> ParallelSweepExecutor:
    """The executor :func:`add_orchestration_options` describes."""
    from .experiments.cache import ResultCache
    from .experiments.executor import ParallelSweepExecutor

    if args.workers < 1:
        raise SystemExit("--workers must be at least 1")
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return ParallelSweepExecutor(workers=args.workers, cache=cache)


def parse_tracer(args: argparse.Namespace):
    """Build the ``--trace`` tracer (or None) as a clean CLI error.

    ``--trace PATH`` writes span JSON-lines to PATH; ``--trace-sample-rate``
    defaults to 1.0 when tracing is on (trace everything — the flag exists
    to dial volume *down*) and is rejected when dangling, mirroring the
    ``--telemetry-period`` guard.  Tracing is observability, not
    configuration, so it never enters the spec.
    """
    if args.trace is None:
        if args.trace_sample_rate is not None:
            raise SystemExit("--trace-sample-rate has no effect without --trace")
        return None
    from .jsonio import JsonlSink
    from .tracing import Tracer

    rate = args.trace_sample_rate
    try:
        sink = JsonlSink(args.trace)
        sink.open()  # an unwritable path fails here, not at the first span
        return Tracer(sink, sample_rate=1.0 if rate is None else rate)
    except (ValueError, OSError) as error:
        raise SystemExit(str(error))


def write_artifact(path: str, artifact) -> None:
    """Write a ``--json`` artifact; a target that cannot be written is a CLI error."""
    try:
        write_json(path, artifact)
    except OSError as error:
        raise SystemExit(f"cannot write --json artifact {path!r}: {error}")


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    from .campaign.cli import add_campaign_subcommand
    from .experiments.cli import add_experiment_subcommands
    from .runtime.cli import add_runtime_subcommands

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, sweep, and compare fairness/reliability experiments "
        "with multiprocess fan-out and a content-addressed result cache.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    add_experiment_subcommands(subparsers)
    add_campaign_subcommand(subparsers)
    add_runtime_subcommands(subparsers)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` (and by the CLI smoke tests)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
