"""Incremental campaign execution over the parallel sweep executor.

:class:`CampaignExecutor` compiles a validated
:class:`~repro.campaign.spec.CampaignSpec` into concrete grid points,
computes per-point staleness from the content-addressed result cache
(config hash unchanged ⇒ cache hit, never re-run), and drives a
re-planning loop:

1. evaluate every selected target's connector tree against the current
   node states; *demand* the services it still needs (``ONE`` demands a
   single alternative at a time, preferring one whose points are already
   fully cached — the short-circuit);
2. run every demanded service whose dependencies are satisfied on the
   shared :class:`~repro.experiments.executor.ParallelSweepExecutor`
   (points fan out over its worker pool; cached points load from disk);
3. render every target whose connector is now satisfied (the standard
   results table or the full fairness/latency report, plus a
   ``--json``-shaped result artifact), and re-plan.

The loop terminates when no node makes progress; services never demanded
(unchosen ``ONE`` alternatives) are marked *skipped*.  Every run writes a
:class:`~repro.campaign.manifest.RunManifest` with per-target provenance —
config hashes, cache hit/miss counts, cache-entry provenance, wall time.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import __version__ as _CODE_VERSION
from ..experiments.cache import ResultCache, config_hash, results_artifact
from ..experiments.config import ExperimentConfig
from ..experiments.executor import ParallelSweepExecutor
from ..experiments.runner import ExperimentResult
from ..experiments.scenarios import get_scenario
from ..experiments.sweeps import compare_configs, grid_configs
from ..registry import PATH_TO_FLAT, RegistryError, resolve_spec_path
from ..jsonio import encode, suggest, write_json, write_text
from .graph import CampaignGraph, compile_graph
from .manifest import RunManifest, PointRecord, ServiceRecord, TargetRecord
from .spec import CampaignError, CampaignSpec, Connector, ServiceSpec, TargetSpec

__all__ = ["CampaignExecutor", "expand_service"]

#: Node states used by the planning loop.
PENDING = "pending"
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
        self.graph: CampaignGraph = compile_graph(spec)
        known = spec.target_names()
        for name in targets or ():
            if name not in known:
                raise CampaignError(
                    f"unknown target {name!r}{suggest(name, known)}; "
                    f"targets: {', '.join(known)}"
                )
        self.selected_targets: List[str] = list(targets) if targets else list(known)
        self._needed = self.graph.restricted_to(self.selected_targets)
        #: name -> expanded grid points (computed once; spec is immutable).
        self.points: Dict[str, List[ExperimentConfig]] = {
            service.name: expand_service(service)
            for service in spec.services
            if service.name in self._needed
        }

    # ------------------------------------------------------------ staleness

    def stale_counts(self) -> Dict[str, Tuple[int, int]]:
        """``service -> (fresh points, stale points)`` from the cache."""
        counts: Dict[str, Tuple[int, int]] = {}
        for name, configs in self.points.items():
            fresh = sum(1 for config in configs if self._is_cached(config))
            counts[name] = (fresh, len(configs) - fresh)
        return counts

    def _is_cached(self, config: ExperimentConfig) -> bool:
        return self.cache is not None and self.cache.fresh(config)

    def _fully_fresh(self, child: Union[str, Connector]) -> bool:
        if isinstance(child, Connector):
            return all(self._fully_fresh(grand) for grand in child.children)
        return all(self._is_cached(config) for config in self.points.get(child, ()))

    # ------------------------------------------------------- connector logic

    def _child_status(self, child: Union[str, Connector], states: Dict[str, str]) -> str:
        if isinstance(child, Connector):
            statuses = [self._child_status(grand, states) for grand in child.children]
            if child.op == "one":
                if DONE in statuses:
                    return DONE
                if all(status == FAILED for status in statuses):
                    return FAILED
                return PENDING
            if FAILED in statuses:
                return FAILED
            if all(status == DONE for status in statuses):
                return DONE
            return PENDING
        state = states[child]
        if state in (DONE, FAILED):
            return state
        return PENDING

    def _demand(self, child: Union[str, Connector], states: Dict[str, str]) -> List[str]:
        """Services that should run *now* to make progress under ``child``."""
        if not isinstance(child, Connector):
            return [child] if states[child] == PENDING else []
        if child.op == "one":
            if self._child_status(child, states) != PENDING:
                return []
            candidates = [
                grand
                for grand in child.children
                if self._child_status(grand, states) != FAILED
            ]
            if not candidates:
                return []
            # The short-circuit: a fully cached alternative wins over an
            # earlier-listed cold one — nothing needs to execute for it.
            chosen = next(
                (grand for grand in candidates if self._fully_fresh(grand)),
                candidates[0],
            )
            return self._demand(chosen, states)
        demanded: List[str] = []
        for grand in child.children:
            demanded.extend(self._demand(grand, states))
        return demanded

    def _consumed(self, child: Union[str, Connector], states: Dict[str, str]) -> List[str]:
        """The leaf services a satisfied connector consumed, in child order.

        ``one`` consumed its first DONE child (nothing while none is);
        every other operator consumed all of its children.
        """
        if not isinstance(child, Connector):
            return [child]
        if child.op == "one":
            for grand in child.children:
                if self._child_status(grand, states) == DONE:
                    return self._consumed(grand, states)
            return []
        return [name for grand in child.children for name in self._consumed(grand, states)]

    # ------------------------------------------------------------- execution

    def run(self, dry_run: bool = False) -> RunManifest:
        """Execute (or plan) the campaign; returns the run manifest."""
        started = time.perf_counter()
        manifest = RunManifest(campaign=self.spec.name, version=_CODE_VERSION)
        states: Dict[str, str] = {
            node: PENDING for node in self.graph.order if node in self._needed
        }
        results: Dict[str, List[ExperimentResult]] = {}
        dependency_map = self.graph.dependency_map()
        targets_by_name = {target.name: target for target in self.spec.targets}

        while True:
            progressed = False

            # Demand services from every unsatisfied selected target, then
            # close over dependencies so `after` prerequisites run too.
            demanded: List[str] = []
            for name in self.selected_targets:
                if states.get(name) == PENDING:
                    demanded.extend(self._demand(targets_by_name[name].inputs, states))
            closure: List[str] = []
            frontier = list(dict.fromkeys(demanded))
            while frontier:
                node = frontier.pop(0)
                if node in closure or node not in states:
                    continue
                closure.append(node)
                frontier.extend(dependency_map.get(node, ()))

            for name in self.graph.order:
                if name not in closure or name not in self.points:
                    continue
                if states[name] != PENDING:
                    continue
                deps = dependency_map.get(name, ())
                active = [dep for dep in deps if dep in states]
                if any(states[dep] == FAILED for dep in active):
                    states[name] = FAILED
                    manifest.services[name] = ServiceRecord(
                        status=FAILED,
                        error="dependency failed: "
                        + ", ".join(dep for dep in active if states[dep] == FAILED),
                    )
                    progressed = True
                    continue
                if not all(states[dep] == DONE for dep in active):
                    continue
                progressed = True
                if dry_run:
                    states[name] = DONE
                    results[name] = []
                    manifest.services[name] = self._planned_record(name)
                else:
                    states[name] = self._run_service(name, manifest, results)

            # Render every needed target whose connector resolved (a target
            # can also be a service's `after` prerequisite, so unselected
            # ancestors render too).
            for name in self.graph.order:
                if name not in targets_by_name or states.get(name) != PENDING:
                    continue
                target = targets_by_name[name]
                status = self._child_status(target.inputs, states)
                if status == PENDING:
                    continue
                progressed = True
                if status == FAILED:
                    states[name] = FAILED
                    manifest.targets[name] = TargetRecord(
                        status=FAILED,
                        inputs=target.inputs.service_names(),
                        error="input service(s) failed",
                    )
                    continue
                states[name] = DONE
                if dry_run:
                    manifest.targets[name] = TargetRecord(
                        status=DONE,
                        inputs=self._consumed(target.inputs, states),
                    )
                else:
                    manifest.targets[name] = self._render_target(
                        target, states, results
                    )

            if progressed:
                manifest.timing.waves += 1
            else:
                break

        for name, state in states.items():
            if state != PENDING:
                continue
            if name in self.points:
                manifest.services.setdefault(name, ServiceRecord(status=SKIPPED))
            else:
                manifest.targets.setdefault(
                    name,
                    TargetRecord(
                        status=SKIPPED,
                        inputs=targets_by_name[name].inputs.service_names(),
                    ),
                )

        if self.cache is not None:
            manifest.cache_stats = encode(self.cache.stats)
        manifest.timing.wall_seconds = time.perf_counter() - started
        if not dry_run:
            manifest.write(os.path.join(self.out_dir, "manifest.json"))
        return manifest

    def _planned_record(self, name: str) -> ServiceRecord:
        """Dry-run record: what would run, what the cache already covers."""
        record = ServiceRecord(status=DONE)
        for config in self.points[name]:
            record.points.append(
                PointRecord(
                    name=config.name,
                    config_hash=config_hash(config),
                    cached=self._is_cached(config),
                )
            )
        return record

    def _run_service(
        self,
        name: str,
        manifest: RunManifest,
        results: Dict[str, List[ExperimentResult]],
    ) -> str:
        configs = self.points[name]
        started = time.perf_counter()
        try:
            computed = self.executor.run_many(configs)
        except (RegistryError, ValueError) as error:
            manifest.services[name] = ServiceRecord(status=FAILED, error=str(error))
            return FAILED
        results[name] = computed
        report = self.executor.last_report
        record = ServiceRecord(status=DONE)
        manifest.timing.services[name] = report.elapsed_seconds
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
        manifest.services[name] = record
        return DONE

    def _render_target(
        self,
        target: TargetSpec,
        states: Dict[str, str],
        results: Dict[str, List[ExperimentResult]],
    ) -> TargetRecord:
        from ..experiments.sweeps import results_table
        from ..telemetry.report import render_results

        consumed = self._consumed(target.inputs, states)
        collected = [result for name in consumed for result in results.get(name, [])]
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
