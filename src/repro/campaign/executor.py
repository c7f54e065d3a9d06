"""Incremental campaign execution over the parallel sweep executor.

:class:`CampaignExecutor` expands a validated
:class:`~repro.campaign.spec.CampaignSpec` into concrete grid points,
computes per-point staleness from the content-addressed result cache
(config hash unchanged ⇒ cache hit, never re-run), and builds each
selected target with one memoized walk of its inputs:

* a *target* evaluates its connector tree — ``ALL`` and ``SEQ`` need every
  child and consume their services in child order; ``ONE`` tries one
  alternative at a time, first one whose points were all cached when the
  run started (a snapshot taken when the executor is made), else in child
  order, and after a failure picks the next by the same rule — then renders
  the standard results table or the full fairness/latency report, plus a
  ``--json``-shaped result artifact;
* a *service* first requires what it waits for (its ``after`` list, then
  its ``SEQ`` predecessors from every target); if one of those failed it
  fails as ``dependency failed: …``, otherwise its points run on the shared
  :class:`~repro.experiments.executor.ParallelSweepExecutor` (misses fan
  out over its worker pool; cached points load from disk).

Every node's state is computed once per run.  Needed nodes the walk never
reached (unchosen ``ONE`` alternatives) are marked *skipped*.  Every run
writes a :class:`~repro.campaign.manifest.RunManifest` with per-target
provenance — config hashes, cache hit/miss counts, cache-entry provenance,
wall time.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .. import __version__ as _CODE_VERSION
from ..experiments.cache import ResultCache, config_hash, results_artifact
from ..experiments.config import ExperimentConfig
from ..experiments.executor import ParallelSweepExecutor
from ..experiments.runner import ExperimentResult
from ..experiments.scenarios import get_scenario
from ..experiments.sweeps import compare_configs, grid_configs
from ..registry import PATH_TO_FLAT, RegistryError, resolve_spec_path
from ..jsonio import encode, suggest, write_json, write_text
from .manifest import RunManifest, PointRecord, ServiceRecord, TargetRecord
from .spec import CampaignError, CampaignSpec, Connector, ServiceSpec, TargetSpec, services_of

__all__ = ["CampaignExecutor", "expand_service"]

#: Node states of one run.
DONE = "done"
FAILED = "failed"
SKIPPED = "skipped"


def expand_service(service: ServiceSpec) -> List[ExperimentConfig]:
    """Expand one service into its concrete grid points.

    Expansion order: scenario base → ``set`` overrides → ``compare``
    (across systems) → ``sweep`` axes plus the ``seeds`` shorthand (a
    cartesian grid).  All value routing goes through the nested
    :class:`~repro.registry.specs.StackSpec`, so types are coerced exactly
    as ``--set`` coerces them; the ``sweep``/``compare`` commands expand
    their one service here too, so their points carry the same names and
    cache identities as a campaign's.
    """
    base = get_scenario(service.scenario).config
    if service.set:
        spec = base.spec()
        for key, value in service.set:
            spec = spec.with_value(key, value)
        base = spec.to_config()
    configs = [base]
    if service.compare:
        configs = [
            expanded
            for config in configs
            for expanded in compare_configs(config, service.compare)
        ]
    axes: List[Tuple[str, Sequence[object]]] = list(service.sweep)
    if service.seeds:
        axes.append(("seed", service.seeds))
    if axes:
        template = configs[0].spec()
        flat_axes: Dict[str, Sequence[object]] = {}
        for axis, values in axes:
            path = resolve_spec_path(axis)
            flat_axes[PATH_TO_FLAT[path]] = [
                template.with_value(path, value).get(path) for value in values
            ]
        configs = [
            expanded
            for config in configs
            for expanded in grid_configs(config, flat_axes, reseed=service.reseed)
        ]
    return configs


class CampaignExecutor:
    """Plan and run one campaign incrementally.

    Parameters
    ----------
    spec:
        A validated campaign spec.
    executor:
        The sweep executor services are scheduled onto; its cache (if any)
        is what staleness is computed from.
    out_dir:
        Where target artifacts and ``manifest.json`` land
        (default ``out/campaign/<campaign name>``).
    targets:
        Optional target subset to build (ancestors included); unknown
        names fail with a did-you-mean :class:`CampaignError`.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        executor: Optional[ParallelSweepExecutor] = None,
        out_dir: Optional[str] = None,
        targets: Optional[Sequence[str]] = None,
    ) -> None:
        self.spec = spec
        self.executor = executor or ParallelSweepExecutor(cache=ResultCache())
        self.cache: Optional[ResultCache] = self.executor.cache
        self.out_dir = out_dir or os.path.join("out", "campaign", spec.name)
        spec.check_acyclic()
        known = spec.target_names()
        for name in targets or ():
            if name not in known:
                raise CampaignError(
                    f"unknown target {name!r}{suggest(name, known)}; "
                    f"targets: {', '.join(known)}"
                )
        self.selected_targets: List[str] = list(targets) if targets else list(known)
        #: node -> what it waits for (:meth:`CampaignSpec.dependencies`).
        self.dependencies: Dict[str, Tuple[str, ...]] = spec.dependencies()
        #: The selected targets and everything they may wait for.
        self.needed: Set[str] = set()
        frontier = list(self.selected_targets)
        while frontier:
            node = frontier.pop()
            if node not in self.needed:
                self.needed.add(node)
                frontier.extend(self.dependencies.get(node, ()))
        #: name -> expanded grid points (computed once; spec is immutable).
        self.points: Dict[str, List[ExperimentConfig]] = {
            service.name: expand_service(service)
            for service in spec.services
            if service.name in self.needed
        }
        #: name -> which of its points were cached when the executor was
        #: made: the snapshot ``ONE`` choices and ``campaign status`` read.
        self.cached: Dict[str, List[bool]] = {
            name: [self.cache is not None and self.cache.fresh(config) for config in configs]
            for name, configs in self.points.items()
        }
        self._targets = {target.name: target for target in spec.targets}

    # ------------------------------------------------------------ staleness

    def stale_counts(self) -> Dict[str, Tuple[int, int]]:
        """``service -> (fresh points, stale points)`` from the cache."""
        return {name: (sum(flags), len(flags) - sum(flags)) for name, flags in self.cached.items()}

    def fully_cached(self, child: Union[str, Connector]) -> bool:
        """Whether every point under ``child`` was cached at the start."""
        return all(all(self.cached[name]) for name in services_of(child))

    # ------------------------------------------------------------- execution

    def run(self, dry_run: bool = False) -> RunManifest:
        """Execute (or plan) the campaign; returns the run manifest."""
        started = time.perf_counter()
        manifest = RunManifest(campaign=self.spec.name, version=_CODE_VERSION)
        self._manifest, self._dry_run = manifest, dry_run
        self._states: Dict[str, str] = {}
        self._results: Dict[str, List[ExperimentResult]] = {}
        for name in self.selected_targets:
            self._require(name)

        # Needed nodes the walk never reached are skipped; records follow
        # spec declaration order (``points`` is built in it).
        manifest.services = {
            name: manifest.services.get(name, ServiceRecord(status=SKIPPED))
            for name in self.points
        }
        manifest.targets = {
            target.name: manifest.targets.get(
                target.name,
                TargetRecord(status=SKIPPED, inputs=target.inputs.service_names()),
            )
            for target in self.spec.targets
            if target.name in self.needed
        }

        if self.cache is not None:
            manifest.cache_stats = encode(self.cache.stats)
        manifest.timing.wall_seconds = time.perf_counter() - started
        if not dry_run:
            manifest.write(os.path.join(self.out_dir, "manifest.json"))
        return manifest

    def _require(self, name: str) -> str:
        """The state of node ``name`` in this run, built on first request."""
        if name not in self._states:
            build = self._build_target if name in self._targets else self._build_service
            self._states[name] = build(name)
        return self._states[name]

    def _build_service(self, name: str) -> str:
        failed = [dep for dep in self.dependencies[name] if self._require(dep) == FAILED]
        if failed:
            record = ServiceRecord(status=FAILED, error="dependency failed: " + ", ".join(failed))
        elif self._dry_run:
            record = self._planned_record(name)
        else:
            record = self._run_service(name)
        self._manifest.services[name] = record
        return record.status

    def _build_target(self, name: str) -> str:
        target = self._targets[name]
        consumed = self._consume(target.inputs)
        if consumed is None:
            record = TargetRecord(
                status=FAILED,
                inputs=target.inputs.service_names(),
                error="input service(s) failed",
            )
        elif self._dry_run:
            record = TargetRecord(status=DONE, inputs=consumed)
        else:
            record = self._render_target(target, consumed)
        self._manifest.targets[name] = record
        return record.status

    def _consume(self, child: Union[str, Connector]) -> Optional[List[str]]:
        """The services an input tree consumed, in child order; ``None`` if it failed.

        ``ALL``/``SEQ`` require every child.  ``ONE`` tries one alternative
        at a time: first one fully cached at the start of the run, else the
        first in child order; after a failure, the next by the same rule.
        """
        if not isinstance(child, Connector):
            return [child] if self._require(child) == DONE else None
        if child.op == "one":
            # A stable sort: fully cached alternatives first, each group in child order.
            for alternative in sorted(child.children, key=lambda alt: not self.fully_cached(alt)):
                consumed = self._consume(alternative)
                if consumed is not None:
                    return consumed
            return None
        parts = [self._consume(grand) for grand in child.children]
        if any(part is None for part in parts):
            return None
        return [name for part in parts for name in part]

    def _planned_record(self, name: str) -> ServiceRecord:
        """Dry-run record: what would run, what the cache already covers."""
        return ServiceRecord(
            status=DONE,
            points=[
                PointRecord(name=config.name, config_hash=config_hash(config), cached=cached)
                for config, cached in zip(self.points[name], self.cached[name])
            ],
        )

    def _run_service(self, name: str) -> ServiceRecord:
        configs = self.points[name]
        try:
            computed = self.executor.run_many(configs)
        except (RegistryError, ValueError) as error:
            return ServiceRecord(status=FAILED, error=str(error))
        self._results[name] = computed
        report = self.executor.last_report
        record = ServiceRecord(status=DONE)
        self._manifest.timing.services[name] = report.elapsed_seconds
        for config, cached in zip(configs, report.hit_flags):
            stored = (self.cache.provenance(config) if self.cache is not None else None) or {}
            provenance = {key: stored[key] for key in ("version", "created_at") if key in stored}
            record.points.append(
                PointRecord(
                    name=config.name,
                    config_hash=config_hash(config),
                    cached=cached,
                    provenance=provenance,
                )
            )
        return record

    def _render_target(self, target: TargetSpec, consumed: List[str]) -> TargetRecord:
        from ..experiments.sweeps import results_table
        from ..telemetry.report import render_results

        collected = [result for name in consumed for result in self._results[name]]
        json_name = f"{target.name}.json"
        text_name = f"{target.name}.txt"
        write_json(os.path.join(self.out_dir, json_name), results_artifact(collected))
        title = target.title or f"{self.spec.name} — {target.name}"
        if target.kind == "report":
            text = render_results(collected)
        else:
            text = results_table(collected, title=title).render()
        write_text(os.path.join(self.out_dir, text_name), text + "\n")
        return TargetRecord(
            status=DONE,
            inputs=consumed,
            outputs=[text_name, json_name],
            config_hashes=[config_hash(result.config) for result in collected],
        )
