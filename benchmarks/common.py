"""Shared helpers for the benchmark suite.

The figure benches (fig1–fig4, s1–s4, c3, c4) do not define their
experiments: each grid is declared once, as a target of
``examples/paper_campaign.json``, and a bench runs that target through the
:class:`~repro.campaign.CampaignExecutor` inside ``benchmark.pedantic``
(:func:`run_target`).  The campaign renders the target's table, which is
printed, and writes its results artifact, which the bench reads back with
:func:`repro.telemetry.report.load_artifact` and asserts the paper's shape
on.  A bench that needs a live system (s1, s4) takes the target's points
from the same campaign and runs them in-process (:func:`run_in_process`).
The headline numbers of every run land in ``benchmark.extra_info`` so
``--benchmark-json`` captures them machine-readably.

Each claim is checked at one seed today.  The runs are deterministic, so
repeating a point measures nothing new, but a claim about a protocol is a
statement over seeds; running the campaign's services over a ``seeds`` list
is the open follow-up (ROADMAP item 3).

The executor below picks up multiprocess fan-out and result caching from
two environment variables:

* ``REPRO_BENCH_WORKERS`` — worker processes per benchmark (default 1).
  Results are bit-identical at any worker count.
* ``REPRO_BENCH_CACHE_DIR`` — enable the on-disk result cache at this path.
  Off by default: cache hits would make pytest-benchmark's timings
  meaningless, so opt in only when iterating on table/assertion code.  A
  warm cache re-renders every target without running anything.

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

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.analysis.tables import Table  # noqa: E402
from repro.campaign import CampaignExecutor, CampaignSpec, expand_service  # noqa: E402
from repro.experiments import ExperimentResult, ParallelSweepExecutor, ResultCache  # noqa: E402
from repro.telemetry.report import load_artifact  # noqa: E402

__all__ = [
    "EXECUTOR",
    "PAPER_CAMPAIGN",
    "run_target",
    "run_in_process",
    "print_columns",
    "attach_extra_info",
    "time_interleaved",
]

#: The one definition of every figure and §5 experiment the benches assert on.
PAPER_CAMPAIGN = os.path.join(_ROOT, "examples", "paper_campaign.json")

_cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR", "")

#: Shared executor: every campaign-backed benchmark funnels through this, so
#: worker count and caching are controlled in one place.
EXECUTOR = ParallelSweepExecutor(
    workers=int(os.environ.get("REPRO_BENCH_WORKERS", "1")),
    cache=ResultCache(_cache_dir) if _cache_dir else None,
)


def run_target(name: str, out_dir) -> List[ExperimentResult]:
    """Build one paper-campaign target; its results, read back from its artifact.

    Prints the target's rendered table and the run's one-line summary
    (``computed: 0`` on a warm cache).
    """
    out_dir = str(out_dir)
    spec = CampaignSpec.from_file(PAPER_CAMPAIGN)
    manifest = CampaignExecutor(spec, EXECUTOR, out_dir=out_dir, targets=[name]).run()
    record = manifest.targets[name]
    if record.status != "done":
        errors = {service: manifest.services[service].error for service in record.inputs}
        raise RuntimeError(f"target {name!r} is {record.status}: {errors}")
    with open(os.path.join(out_dir, f"{name}.txt"), encoding="utf-8") as handle:
        print("\n" + handle.read() + manifest.describe())
    return load_artifact(os.path.join(out_dir, f"{name}.json")).value


def run_in_process(target: str) -> List[ExperimentResult]:
    """Run a paper-campaign target's points in this process, keeping each live system.

    For the benches that read what a results artifact does not carry (the
    ledger's subscription forwards, data-aware multicast's delegates); the
    points are still the campaign's.
    """
    spec = CampaignSpec.from_file(PAPER_CAMPAIGN)
    services = spec.target(target).inputs.service_names()
    configs = [config for service in services for config in expand_service(spec.service(service))]
    return EXECUTOR.run_many(configs, keep_system=True)


def print_columns(title: str, columns: Dict[str, Dict[str, float]]) -> None:
    """Print the per-point numbers a bench derives beyond the target's table."""
    table = Table(["name", *sorted({key for values in columns.values() for key in values})], title)
    for name, values in columns.items():
        table.add_row(name=name, **values)
    print("\n" + table.render())


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
