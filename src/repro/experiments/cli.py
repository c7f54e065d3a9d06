"""The simulator subcommands of ``python -m repro``.

``run``, ``sweep``, ``compare``, ``list-scenarios``, ``describe``,
``report`` and ``trace`` (see :mod:`repro.cli` for the full command list and
for how a command line becomes a spec).

``run`` additionally accepts ``--telemetry jsonl:out/metrics.jsonl`` (and
friends; repeatable) to stream periodic telemetry snapshots during the run;
``report`` then renders tables from that snapshot stream, from any
``--json`` result artifact, or from a cached result — no re-run needed.

``sweep`` and ``compare`` build the one campaign service their arguments
describe and run its points; the executor options (``--workers``,
``--cache-dir``/``--no-cache``, ``--json``) are shared with ``run`` and
``campaign`` (:func:`repro.cli.add_orchestration_options`).
Because experiments are deterministic, ``--workers N`` produces
bit-identical artifacts for every ``N``, and a repeated invocation is served
entirely from the cache (reported in the trailing status line).
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING, List, Optional

from ..cli import (
    add_orchestration_options,
    add_stack_options,
    build_executor,
    parse_tracer,
    resolve_spec,
    write_artifact,
)
from ..jsonio import suggest
from ..registry.base import RegistryError
from ..registry.specs import StackSpec, parse_scalar, parse_spec_overrides

if TYPE_CHECKING:  # annotations only: each command imports what it runs
    from .executor import ParallelSweepExecutor
    from .runner import ExperimentResult

__all__ = ["add_experiment_subcommands"]


def _emit_results(
    args: argparse.Namespace,
    executor: Optional[ParallelSweepExecutor],
    results: List[ExperimentResult],
    title: str,
) -> None:
    """Print the result table and status line; optionally write the artifact."""
    from .cache import results_artifact
    from .sweeps import results_table

    print(results_table(results, title=title).render())
    if executor is not None and executor.last_report is not None:
        print(executor.last_report.describe())
    if args.json:
        write_artifact(args.json, results_artifact(results))
        print(f"wrote {len(results)} result artifact(s) to {args.json}")


def _cmd_run(args: argparse.Namespace) -> int:
    from .runner import run_experiment

    spec = resolve_spec(args)
    # The flat config is the cache identity; fault and topology entries are
    # part of it, telemetry and tracing are not.
    config = spec.to_config()
    sinks = spec.telemetry.sinks
    tracer = parse_tracer(args)
    if sinks or tracer is not None:
        # Telemetry sinks hold open files and are not picklable, so a
        # telemetry-enabled run executes in-process and bypasses the cache
        # (the snapshot stream is the artifact being produced).  The same
        # holds for tracing: the trace JSONL is the artifact, and tracing
        # is not part of the config, so cached results must not satisfy a
        # traced run.
        try:
            result = _run_clean(
                lambda: run_experiment(
                    config,
                    snapshot_sinks=sinks,
                    snapshot_period=spec.telemetry.period,
                    tracer=tracer,
                )
            )
        finally:
            if tracer is not None:
                tracer.close()
        _emit_results(args, None, [result], title=f"run — {config.name}")
        for sink in sinks:
            print(f"telemetry sink: {sink}")
        if tracer is not None:
            print(
                f"trace: {tracer.spans_emitted} span(s) "
                f"at sample rate {tracer.sample_rate} -> {args.trace}"
            )
        return 0
    executor = build_executor(args)
    results = _run_clean(lambda: executor.run_many([config]))
    _emit_results(args, executor, results, title=f"run — {config.name}")
    return 0


def _run_clean(execute):
    """Run an executor call, turning FaultPlanError into a clean CLI error.

    Every point passed :meth:`StackSpec.validate` already; what is left is
    what only a built system can reject (a fault plan naming nodes it does
    not have).
    """
    from ..faults import FaultPlanError

    try:
        return execute()
    except (FaultPlanError, RegistryError) as error:
        # RegistryError covers build-time topology rejections (e.g. a sweep
        # over system.kind hitting a non-gossip system with topology on).
        raise SystemExit(str(error))


def _split(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _run_grid(args: argparse.Namespace, title: str, **fields) -> int:
    """Expand and run the one campaign service a ``sweep``/``compare`` line describes."""
    from ..campaign.executor import expand_service
    from ..campaign.spec import ServiceSpec

    try:
        overrides = tuple(parse_spec_overrides(args.set or []).items())
        service = ServiceSpec(args.command, args.scenario, set=overrides, **fields)
        configs = expand_service(service.validate())
    except RegistryError as error:
        raise SystemExit(str(error))
    executor = build_executor(args)
    results = _run_clean(lambda: executor.run_many(configs))
    _emit_results(args, executor, results, title=title)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    values = tuple(parse_scalar(value) for value in _split(args.values))
    return _run_grid(
        args,
        f"sweep — {args.scenario} over {args.param}={args.values}",
        sweep=((args.param, values),),
        reseed=args.reseed,
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    return _run_grid(
        args,
        f"compare — {args.scenario} across {args.systems}",
        compare=tuple(_split(args.systems)),
    )


def _cmd_describe(args: argparse.Namespace) -> int:
    from ..registry.builtins import all_registries, workload_kind
    from .scenarios import get_scenario, scenario_names

    name = args.name
    registries = all_registries()
    defaults = StackSpec()
    if name in scenario_names():
        scenario = get_scenario(name)
        spec = scenario.spec
        print(f"scenario {scenario.name}: {scenario.description}")
        print()
        print("resolved spec (override any path with --set path=value):")
        for line in spec.describe().splitlines():
            print(f"  {line}")
        print()
        print("components:")
        component_kinds = {
            "system": spec.system.kind,
            "membership": spec.membership.kind,
            "interest": spec.interest.kind,
            "workload": workload_kind(spec),
            "policy": spec.policy.kind,
        }
        for section, kind in component_kinds.items():
            try:
                described = registries[section].get(kind).describe(getattr(defaults, section))
            except RegistryError as error:
                described = f"{kind}\n  ({error})"
            print(f"  [{section}]")
            for line in described.splitlines():
                print(f"  {line}")
        return 0

    matches = [
        (section, registry.get(name))
        for section, registry in registries.items()
        if name in registry
    ]
    if matches:
        for section, entry in matches:
            print(f"[{section}]")
            print(entry.describe(getattr(defaults, section)))
        return 0

    known = list(scenario_names()) + [
        component for registry in registries.values() for component in registry.names()
    ]
    raise SystemExit(
        f"unknown scenario or component {name!r}{suggest(name, known)}; "
        f"scenarios: {', '.join(scenario_names())}; "
        f"components: {', '.join(sorted(set(known) - set(scenario_names())))}"
    )


def _cmd_report(args: argparse.Namespace) -> int:
    """Render fairness/reliability/latency tables from a stored artifact."""
    from ..telemetry.report import load_artifact, render_report

    try:
        artifact = load_artifact(args.artifact)
    except ValueError as error:
        raise SystemExit(str(error))
    print(render_report(artifact, max_rows=args.max_rows))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Reconstruct infection trees from a ``--trace`` span stream."""
    from ..telemetry.report import load_artifact
    from ..tracing import TRACE_SCHEMA, analyze_spans, render_trace

    try:
        artifact = load_artifact(args.artifact)
    except ValueError as error:
        raise SystemExit(str(error))
    if artifact.schema != TRACE_SCHEMA:
        raise SystemExit(
            f"artifact {args.artifact!r} contains no trace spans; expected the "
            "JSON-lines stream written by run/serve/loadgen --trace "
            f"(its schema is {artifact.schema!r} — try `repro report`)"
        )
    try:
        rendered = render_trace(
            analyze_spans(artifact.value),
            event=args.event,
            max_events=args.max_events,
            max_rows=args.max_rows,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    print(rendered)
    return 0


def _cmd_list_scenarios(args: argparse.Namespace) -> int:
    from ..analysis.tables import Table
    from .scenarios import iter_scenarios

    table = Table(["name", "system", "nodes", "description"], title="registered scenarios")
    for scenario in iter_scenarios():
        table.add_row(
            name=scenario.name,
            system=scenario.config.system,
            nodes=scenario.config.nodes,
            description=scenario.description,
        )
    print(table.render())
    return 0


def add_experiment_subcommands(subparsers) -> None:
    """Register the simulator subcommands on the ``python -m repro`` parser."""
    run_parser = subparsers.add_parser("run", help="run one scenario")
    add_orchestration_options(run_parser)
    add_stack_options(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = subparsers.add_parser("sweep", help="sweep one parameter axis")
    add_orchestration_options(sweep_parser)
    add_stack_options(sweep_parser, set_only=True)
    sweep_parser.add_argument(
        "--param",
        required=True,
        help="spec field to sweep, as dotted path (system.fanout)",
    )
    sweep_parser.add_argument(
        "--values", required=True, help="comma-separated values (parsed as int/float/bool/str)"
    )
    sweep_parser.add_argument(
        "--reseed",
        action="store_true",
        help="derive a distinct deterministic seed per grid point",
    )
    sweep_parser.set_defaults(handler=_cmd_sweep)

    compare_parser = subparsers.add_parser("compare", help="compare dissemination systems")
    add_orchestration_options(compare_parser)
    add_stack_options(compare_parser, set_only=True)
    compare_parser.add_argument(
        "--systems",
        required=True,
        help="comma-separated registered system names (see describe SCENARIO)",
    )
    compare_parser.set_defaults(handler=_cmd_compare)

    list_parser = subparsers.add_parser("list-scenarios", help="show the scenario registry")
    list_parser.set_defaults(handler=_cmd_list_scenarios)

    describe_parser = subparsers.add_parser(
        "describe",
        help="show a scenario's resolved spec and component schemas, or one component's schema",
    )
    describe_parser.add_argument("name", help="scenario or component name (e.g. smoke, fair-gossip)")
    describe_parser.set_defaults(handler=_cmd_describe)

    report_parser = subparsers.add_parser(
        "report",
        help="render fairness/reliability/latency tables from a stored artifact "
        "(telemetry JSON-lines stream, --json results, cache entry, or runtime artifact)",
    )
    report_parser.add_argument(
        "artifact",
        help="path to the artifact: a telemetry .jsonl stream, a --json results "
        "file, a .repro-cache entry, or a serve/loadgen --json artifact",
    )
    report_parser.add_argument(
        "--max-rows",
        type=int,
        default=10,
        help="per-table row cap for per-node breakdowns (default: 10)",
    )
    report_parser.set_defaults(handler=_cmd_report)

    trace_parser = subparsers.add_parser(
        "trace",
        help="reconstruct per-event infection trees and dissemination "
        "statistics from a --trace span stream",
    )
    trace_parser.add_argument(
        "artifact",
        help="path to a trace JSON-lines stream written by run/serve/loadgen --trace",
    )
    trace_parser.add_argument(
        "--event",
        default=None,
        metavar="EVENT_ID",
        help="render the infection tree of one traced event only",
    )
    trace_parser.add_argument(
        "--max-events",
        type=int,
        default=3,
        metavar="N",
        help="how many infection trees to render (default: 3)",
    )
    trace_parser.add_argument(
        "--max-rows",
        type=int,
        default=10,
        help="row cap for the per-event table (default: 10)",
    )
    trace_parser.set_defaults(handler=_cmd_trace)
