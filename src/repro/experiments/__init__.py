"""Declarative experiment harness used by the CLI, benchmarks, and examples.

Layering: :mod:`config` describes experiments, :mod:`scenarios` builds live
systems (and names reusable configs), :mod:`runner` turns one config into an
:class:`ExperimentResult`, :mod:`sweeps` expands parameter grids,
:mod:`cache` persists results content-addressed by config hash, and
:mod:`executor` fans uncached grid points out over worker processes.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "ExperimentConfig": ".config",
    "ExperimentResult": ".runner",
    "run_experiment": ".runner",
    "results_table": ".sweeps",
    "compare_configs": ".sweeps",
    "grid_configs": ".sweeps",
    "ParallelSweepExecutor": ".executor",
    "ExecutionReport": ".executor",
    "ResultCache": ".cache",
    "config_hash": ".cache",
    "ARTIFACT_SCHEMA": ".cache",
    "Scenario": ".scenarios",
    "register_scenario": ".scenarios",
    "get_scenario": ".scenarios",
    "scenario_names": ".scenarios",
    "iter_scenarios": ".scenarios",
    "build_simulation": ".scenarios",
    "build_system": ".scenarios",
    "build_popularity": ".scenarios",
    "build_interest": ".scenarios",
    "build_membership_provider": ".scenarios",
    "resolve_policy": ".scenarios",
    "system_names": ".scenarios",
    "StackSpec": "..registry",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
