"""Declarative experiment harness used by the CLI, benchmarks, and examples.

Layering: :mod:`config` describes experiments, :mod:`scenarios` builds live
systems (and names reusable configs), :mod:`runner` turns one config into an
:class:`ExperimentResult`, :mod:`sweeps` expands parameter grids,
:mod:`cache` persists results content-addressed by config hash, and
:mod:`executor` fans uncached grid points out over worker processes.
"""

from .cache import ARTIFACT_SCHEMA, ResultCache, config_hash
from .config import ExperimentConfig
from .executor import ExecutionReport, ParallelSweepExecutor
from .runner import ExperimentResult, run_experiment
from ..registry import StackSpec
from .scenarios import (
    Scenario,
    system_names,
    build_interest,
    build_membership_provider,
    build_popularity,
    build_simulation,
    build_system,
    get_scenario,
    iter_scenarios,
    register_scenario,
    resolve_policy,
    scenario_names,
)
from .sweeps import compare_configs, grid_configs, results_table

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "results_table",
    "compare_configs",
    "grid_configs",
    "ParallelSweepExecutor",
    "ExecutionReport",
    "ResultCache",
    "config_hash",
    "ARTIFACT_SCHEMA",
    "Scenario",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "iter_scenarios",
    "build_simulation",
    "build_system",
    "build_popularity",
    "build_interest",
    "build_membership_provider",
    "resolve_policy",
    "system_names",
    "StackSpec",
]
