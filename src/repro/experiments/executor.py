"""Parallel, cache-aware execution of experiment grids.

:class:`ParallelSweepExecutor` is the engine behind ``python -m repro`` and
the benchmark suite.  :meth:`~ParallelSweepExecutor.run_many` takes the
grids :mod:`repro.experiments.sweeps` expands (``run_many(grid_configs(...))``,
``run_many(compare_configs(...))``) and fans the *uncached* points out over a
:mod:`multiprocessing` pool.

Two properties make this safe:

* **Determinism** — :func:`repro.experiments.runner.run_experiment` is a
  pure function of its config: every random draw flows from
  ``config.seed`` through :func:`repro.sim.rng.derive_seed`-derived
  streams, and the event queue breaks ties deterministically.  Workers
  therefore compute exactly what a serial loop would, and results are
  bit-identical regardless of worker count or scheduling order.
* **Content addressing** — results are cached by config hash
  (:mod:`repro.experiments.cache`), so re-running a sweep only pays for
  points whose config actually changed.

Runs requesting ``keep_system`` carry a live (unpicklable, unserializable)
object graph, so they bypass both the pool and the cache and execute
serially in-process.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .cache import ResultCache
from .config import ExperimentConfig
from .runner import ExperimentResult, run_experiment

__all__ = ["ExecutionReport", "ParallelSweepExecutor"]


@dataclass(frozen=True)
class ExecutionReport:
    """What one :meth:`ParallelSweepExecutor.run_many` call did."""

    total: int
    cache_hits: int
    computed: int
    workers: int
    elapsed_seconds: float
    #: Per-config hit flags in input order (``True`` = served from cache).
    hit_flags: Tuple[bool, ...] = ()

    def describe(self) -> str:
        """One-line human-readable summary (shown by the CLI)."""
        return (
            f"runs: {self.total} | cache hits: {self.cache_hits} | "
            f"computed: {self.computed} | workers: {self.workers} | "
            f"elapsed: {self.elapsed_seconds:.2f}s"
        )


class ParallelSweepExecutor:
    """Run many experiment configs with worker processes and a result cache.

    Parameters
    ----------
    workers:
        Number of worker processes; 1 (the default) runs everything
        in-process.  More workers than uncached configs are not spawned.
    cache:
        Optional :class:`~repro.experiments.cache.ResultCache`; when present,
        configs found in the cache are served from disk and freshly computed
        results are stored back.
    mp_context:
        Optional :func:`multiprocessing.get_context` method name
        (``"fork"``/``"spawn"``); ``None`` uses the platform default.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = int(workers)
        self.cache = cache
        self.mp_context = mp_context
        self.last_report: Optional[ExecutionReport] = None

    def run_many(
        self,
        configs: Sequence[ExperimentConfig],
        keep_system: bool = False,
    ) -> List[ExperimentResult]:
        """Run every config, preserving input order in the returned list.

        Cached points are loaded from disk; the rest are computed — in
        parallel when more than one worker is configured — and stored back.
        ``self.last_report`` records hit/computed counts for the call.
        """
        configs = list(configs)
        started = time.perf_counter()
        results: List[Optional[ExperimentResult]] = [None] * len(configs)
        use_cache = self.cache is not None and not keep_system
        missing_indices: List[int] = []
        for index, config in enumerate(configs):
            cached = self.cache.load(config) if use_cache else None
            if cached is not None:
                results[index] = cached
            else:
                missing_indices.append(index)

        missing = [configs[index] for index in missing_indices]
        if missing:
            if self.workers > 1 and len(missing) > 1 and not keep_system:
                context = multiprocessing.get_context(self.mp_context)
                processes = min(self.workers, len(missing))
                with context.Pool(processes=processes) as pool:
                    computed = pool.map(run_experiment, missing, chunksize=1)
            else:
                computed = [run_experiment(config, keep_system=keep_system) for config in missing]
            for index, result in zip(missing_indices, computed):
                results[index] = result
                if use_cache:
                    self.cache.store(result)

        computed_indices = set(missing_indices)
        self.last_report = ExecutionReport(
            total=len(configs),
            cache_hits=len(configs) - len(missing),
            computed=len(missing),
            workers=self.workers,
            elapsed_seconds=time.perf_counter() - started,
            hit_flags=tuple(index not in computed_indices for index in range(len(configs))),
        )
        return results  # type: ignore[return-value]
