"""Parameter sweeps: run the same experiment across a grid of values.

The paper's open questions are mostly of the form "how does X behave as Y
varies" (reliability vs fanout, fairness vs interest skew, convergence vs
churn).  This module is the **grid expansion**: :func:`compare_configs` and
:func:`grid_configs` turn a base config plus a systems list or a parameter
grid into the list of concrete :class:`ExperimentConfig` points,
with optional per-point seed derivation (:func:`repro.sim.rng.derive_seed`)
so grid points are statistically decorrelated yet fully deterministic.

:class:`repro.experiments.executor.ParallelSweepExecutor` runs those points
(``workers=1`` serially in-process, which is what small tests and examples
want; more workers and a result cache for real grids) — every worker count
executes exactly the same configs and therefore produces bit-identical
results.  Campaign services (and with them the ``sweep``/``compare``
commands) reach both through
:func:`repro.campaign.executor.expand_service`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from ..analysis.tables import Table
from ..sim.rng import derive_seed
from .config import ExperimentConfig
from .runner import ExperimentResult

__all__ = [
    "results_table",
    "compare_configs",
    "grid_configs",
]


def compare_configs(base: ExperimentConfig, systems: Sequence[str]) -> List[ExperimentConfig]:
    """Expand a cross-system comparison (the Figure 1 shape) into configs."""
    return [
        base.with_overrides(system=system, name=f"{base.name}/{system}")
        for system in systems
    ]


def grid_configs(
    base: ExperimentConfig,
    parameters: Mapping[str, Sequence],
    reseed: bool = False,
) -> List[ExperimentConfig]:
    """Expand a multi-axis cartesian grid into configs.

    ``parameters`` maps field names to value lists; points are emitted in
    row-major order of the mapping's iteration order, and each point's name
    lists every coordinate (``base/fanout=2,loss_rate=0.1``).  With
    ``reseed`` each point gets ``seed=derive_seed(base.seed, point_name)``
    instead of sharing the base seed, decorrelating the points without
    losing determinism; it is ignored when ``seed`` is itself a grid axis
    (the swept values are the seeds).
    """
    reseed = reseed and "seed" not in parameters
    names = list(parameters)
    configs: List[ExperimentConfig] = [base]
    for parameter in names:
        expanded: List[ExperimentConfig] = []
        for config in configs:
            for value in parameters[parameter]:
                expanded.append(config.with_overrides(**{parameter: value}))
        configs = expanded
    finished: List[ExperimentConfig] = []
    for config in configs:
        label = ",".join(f"{parameter}={getattr(config, parameter)}" for parameter in names)
        name = f"{base.name}/{label}"
        overrides: Dict[str, object] = {"name": name}
        if reseed:
            overrides["seed"] = derive_seed(base.seed, name)
        finished.append(config.with_overrides(**overrides))
    return finished


def results_table(results: Sequence[ExperimentResult], title: str = "") -> Table:
    """Tabulate the headline numbers of several results."""
    table = Table(
        [
            "name",
            "system",
            "nodes",
            "delivery_ratio",
            "mean_rounds",
            "ratio_jain",
            "ratio_spread",
            "wasted_share",
            "contribution_jain",
            "total_messages",
        ],
        title=title,
    )
    for result in results:
        report = result.fairness.report
        table.add_row(
            name=result.config.name,
            system=result.config.system,
            nodes=result.config.nodes,
            delivery_ratio=result.reliability.delivery_ratio,
            mean_rounds=result.reliability.mean_rounds,
            ratio_jain=report.ratio_jain,
            ratio_spread=report.ratio_spread,
            wasted_share=report.wasted_share,
            contribution_jain=report.contribution_jain,
            total_messages=result.total_messages,
        )
    return table
