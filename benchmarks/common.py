"""Shared helpers for the benchmark suite.

Every benchmark file regenerates one experiment from the figure map in
``benchmarks/README.md`` (one per paper figure or §5 challenge).  The pattern is always the same:
build the experiment configs, run them once inside ``benchmark.pedantic``
(the simulation itself is the thing being timed; statistical repetition is
pointless because the runs are deterministic), print the table the paper
would show, and attach the headline numbers to ``benchmark.extra_info`` so
``--benchmark-json`` captures them machine-readably.

Multi-config benchmarks go through the shared
:class:`~repro.experiments.executor.ParallelSweepExecutor` (``run_configs``
below, over ``grid_configs`` / ``compare_configs`` grids), so the whole suite picks up
multiprocess fan-out and result caching from two environment variables:

* ``REPRO_BENCH_WORKERS`` — worker processes per benchmark (default 1).
  Results are bit-identical at any worker count.
* ``REPRO_BENCH_CACHE_DIR`` — enable the on-disk result cache at this path.
  Off by default: cache hits would make pytest-benchmark's timings
  meaningless, so opt in only when iterating on table/assertion code.

Benchmarks use smaller populations than a paper deployment would (hundreds
of nodes, not tens of thousands) so the whole suite finishes in minutes;
the *shape* of the comparisons is what is being reproduced, as explained in
``benchmarks/README.md``.
"""

from __future__ import annotations

import gc
import sys
import os
import time
from typing import Callable, Dict, List, Sequence, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.analysis.tables import Table  # noqa: E402
from repro.experiments import (  # noqa: E402
    ExperimentConfig,
    ExperimentResult,
    ParallelSweepExecutor,
    ResultCache,
    compare_configs,
    get_scenario,
    grid_configs,
    results_table,
)

__all__ = [
    "BASE_CONFIG",
    "EXECUTOR",
    "spec_overrides",
    "run_configs",
    "grid_configs",
    "compare_configs",
    "print_results",
    "attach_extra_info",
    "time_interleaved",
    "Table",
    "ExperimentConfig",
]

#: Baseline scenario shared by most benchmarks (the registered "base"
#: scenario): medium-sized system, Zipf topic popularity, heterogeneous
#: (Zipf) interest, moderate traffic.
BASE_CONFIG = get_scenario("base").config

_cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR", "")

#: Shared executor: every multi-config benchmark funnels through this, so
#: worker count and caching are controlled in one place.
EXECUTOR = ParallelSweepExecutor(
    workers=int(os.environ.get("REPRO_BENCH_WORKERS", "1")),
    cache=ResultCache(_cache_dir) if _cache_dir else None,
)


def spec_overrides(base: ExperimentConfig, overrides: Dict[str, object]) -> ExperimentConfig:
    """Apply dotted spec-path overrides to a flat config.

    Benchmark variants can use the same vocabulary as the CLI's ``--set``
    (``{"system.fanout": 5, "membership.kind": "lpbcast"}``); the mapping
    round-trips through :class:`repro.registry.StackSpec`, which never
    perturbs the cache key of an untouched field.
    """
    return base.spec().with_values(overrides).to_config()


def run_configs(
    configs: Sequence[ExperimentConfig], keep_system: bool = False
) -> List[ExperimentResult]:
    """Run a list of configs through the shared executor, preserving order."""
    return EXECUTOR.run_many(configs, keep_system=keep_system)


def print_results(title: str, results: Sequence[ExperimentResult], extra_columns: Dict[str, Dict[str, object]] = None) -> None:
    """Print the standard result table (plus optional per-run extra columns)."""
    extra_columns = extra_columns or {}
    table = results_table(results, title=title)
    table.columns += sorted({key for values in extra_columns.values() for key in values})
    for row in table.rows:
        row.update(extra_columns.get(row["name"], {}))
    print()
    print(table.render())


def attach_extra_info(benchmark, results: Sequence[ExperimentResult]) -> None:
    """Store the headline numbers of every run in the benchmark record."""
    benchmark.extra_info["rows"] = [
        {
            "name": result.config.name,
            "system": result.config.system,
            "delivery_ratio": round(result.reliability.delivery_ratio, 4),
            "ratio_jain": round(result.fairness.report.ratio_jain, 4),
            "wasted_share": round(result.fairness.report.wasted_share, 4),
            "contribution_jain": round(result.fairness.report.contribution_jain, 4),
            "total_messages": result.total_messages,
        }
        for result in results
    ]


def time_interleaved(
    arms: Dict[str, Callable[[], object]], rounds: int
) -> Tuple[Dict[str, float], Dict[str, object], float]:
    """Interleaved min-of-N wall time of several arms of one experiment.

    For overhead benchmarks whose effect is a few percent of a run of a
    second or more.  The arms run round-robin, ``rounds`` times after one
    untimed warm-up each (imports, code caches), so scheduler noise and
    cache warmth hit every arm equally, and the *best* run of each — the one
    closest to its true cost — is what gets compared.  Collector pauses land
    on whichever arm happens to trip the threshold and dwarf a sub-5 %
    effect, so each sample starts from a collected heap and runs with the
    collector off.

    The first arm is the baseline and is timed twice, as two interleaved
    arms of the same code (``<name>`` and ``<name>_again``): the gap between
    their best runs is the noise floor of this host, so a reading of either
    sign can be judged against it.

    Returns ``(best seconds per arm, last result per arm, noise floor as a
    fraction of the baseline)``.
    """
    baseline = next(iter(arms))
    arms = {baseline: arms[baseline], f"{baseline}_again": arms[baseline], **arms}
    for run in arms.values():
        run()
    best = {name: float("inf") for name in arms}
    sample: Dict[str, object] = {}
    for _ in range(rounds):
        for name, run in arms.items():
            gc.collect()
            gc.disable()
            started = time.perf_counter()
            try:
                sample[name] = run()
                elapsed = time.perf_counter() - started
            finally:
                gc.enable()
            best[name] = min(best[name], elapsed)
    noise_floor = abs(best[f"{baseline}_again"] - best[baseline]) / best[baseline]
    return best, sample, noise_floor
