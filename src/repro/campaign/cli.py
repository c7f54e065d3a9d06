"""``python -m repro campaign`` — run or inspect a campaign spec.

Two forms share one subcommand:

``python -m repro campaign SPEC.json [--target NAME] [--dry-run] ...``
    execute the campaign incrementally (only stale points run) and write
    target artifacts plus ``manifest.json`` under the output directory;
``python -m repro campaign status SPEC.json ...``
    print the dependency graph with per-service fresh/stale marks and a
    cache provenance summary (flagging entries written by older package
    versions) without running anything.
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING, Dict, List

from .. import __version__ as _CODE_VERSION
from ..analysis.tables import Table
from ..cli import add_orchestration_options, build_executor

if TYPE_CHECKING:  # annotations only: ``campaign`` imports its executor when it runs
    from .executor import CampaignExecutor
    from .manifest import RunManifest

__all__ = ["add_campaign_subcommand", "render_status", "render_plan"]


def render_status(executor: CampaignExecutor) -> str:
    """The ``campaign status`` view: graph, staleness, cache provenance."""
    spec = executor.spec
    sections: List[str] = []
    header = f"campaign {spec.name} — {len(spec.services)} service(s), {len(spec.targets)} target(s)"
    if spec.description:
        header += f"\n  {spec.description}"
    sections.append(header)

    counts = executor.stale_counts()
    services = Table(
        ["service", "scenario", "points", "fresh", "stale", "depends on"],
        title="services (fresh = cached under the current config hash)",
    )
    for service in spec.services:
        if service.name not in counts:
            continue
        fresh, stale = counts[service.name]
        services.add_row(
            service=service.name,
            scenario=service.scenario,
            points=fresh + stale,
            fresh=fresh,
            stale=stale,
            **{"depends on": ", ".join(executor.graph.dependencies_of(service.name)) or "-"},
        )
    sections.append(services.render())

    targets = Table(
        ["target", "kind", "inputs", "state"],
        title="targets (fresh = every needed point cached)",
    )
    for target in spec.targets:
        if target.name not in executor._needed:
            continue
        targets.add_row(
            target=target.name,
            kind=target.kind,
            inputs=target.inputs.describe(),
            state="fresh" if executor._fully_fresh(target.inputs) else "stale",
        )
    sections.append(targets.render())

    if executor.cache is not None:
        entries = 0
        versions: Dict[str, int] = {}
        unreadable = 0
        for _path, provenance in executor.cache.scan_provenance():
            entries += 1
            if provenance is None:
                unreadable += 1
                continue
            version = str(provenance.get("version", "unknown"))
            versions[version] = versions.get(version, 0) + 1
        stale_versions = sum(
            count for version, count in versions.items() if version != _CODE_VERSION
        )
        line = f"cache: {entries} entr(ies) at {executor.cache.directory}"
        if stale_versions:
            line += (
                f" — {stale_versions} written by an older repro version "
                f"({', '.join(sorted(version for version in versions if version != _CODE_VERSION))}); "
                "they will never be hit and can be cleared"
            )
        if unreadable:
            line += f" — {unreadable} without readable provenance (pre-provenance or corrupt)"
        sections.append(line)
    else:
        sections.append("cache: disabled (--no-cache) — every point reads as stale")
    return "\n\n".join(sections)


def render_plan(manifest: RunManifest) -> str:
    """The ``--dry-run`` view: what would run vs load from cache."""
    table = Table(
        ["node", "action", "points", "from cache", "to compute"],
        title=f"plan for campaign {manifest.campaign} (dry run — nothing executed)",
    )
    for name, record in manifest.services.items():
        cached = record.cache_hits
        total = len(record.points)
        table.add_row(
            node=name,
            action="load" if cached == total else "run",
            points=total,
            **{"from cache": cached, "to compute": total - cached},
        )
    for name, record in manifest.targets.items():
        table.add_row(node=name, action="render", points=len(record.config_hashes) or "")
    return table.render()


def cmd_campaign(args: argparse.Namespace) -> int:
    from .executor import DONE, FAILED, CampaignExecutor
    from .spec import CampaignError, CampaignSpec

    words = list(args.words)
    status_mode = False
    if words and words[0] == "status":
        status_mode = True
        words = words[1:]
    if len(words) != 1:
        raise SystemExit(
            "usage: python -m repro campaign [status] SPEC.json "
            "[--target NAME] [--dry-run] [--workers N]"
        )
    try:
        executor = CampaignExecutor(
            CampaignSpec.from_file(words[0]),
            executor=build_executor(args),
            out_dir=args.out_dir,
            targets=args.target or None,
        )
    except CampaignError as error:
        raise SystemExit(str(error))

    if status_mode:
        print(render_status(executor))
        return 0

    manifest = executor.run(dry_run=args.dry_run)
    if args.dry_run:
        print(render_plan(manifest))
        return 0

    for name, record in manifest.targets.items():
        if record.status == DONE:
            outputs = ", ".join(record.outputs)
            print(f"target {name}: {outputs or '(no artifacts)'}")
        else:
            print(f"target {name}: {record.status}" + (f" — {record.error}" if record.error else ""))
    print(f"manifest: {executor.out_dir}/manifest.json")
    print(manifest.describe())
    failed = [
        name
        for name, record in list(manifest.services.items()) + list(manifest.targets.items())
        if record.status == FAILED
    ]
    if failed:
        print(f"FAILED node(s): {', '.join(failed)}")
        return 1
    return 0


def add_campaign_subcommand(subparsers) -> None:
    """Register ``campaign`` on the ``python -m repro`` parser."""
    parser = subparsers.add_parser(
        "campaign",
        help="run a declarative experiment campaign incrementally (or "
        "`campaign status SPEC.json` to inspect staleness without running)",
    )
    parser.add_argument(
        "words",
        nargs="+",
        metavar="[status] SPEC.json",
        help="campaign spec file; prefix with the word 'status' to print the "
        "dependency graph with fresh/stale marks instead of executing",
    )
    parser.add_argument(
        "--target",
        action="append",
        metavar="NAME",
        help="build only this target (and its ancestors); repeatable",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="plan only: print what would run vs load from cache",
    )
    add_orchestration_options(parser, scenario=False)
    parser.add_argument(
        "--out-dir",
        default=None,
        metavar="DIR",
        help="artifact directory (default: out/campaign/<campaign name>)",
    )
    parser.set_defaults(handler=cmd_campaign)
