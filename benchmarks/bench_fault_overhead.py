"""Fault-layer overhead: an active-but-idle FaultController is near-free.

The fault layer's determinism contract says an *empty* plan schedules
nothing and draws nothing (fault-free runs are byte-identical to the
pre-fault code, which the pinned result hashes already enforce).  This
benchmark pins the next property: a controller that is *running* but whose
entries do nothing observable — a churn entry with both probabilities at
zero, ticking every round over the whole population and drawing only from
its own isolated RNG stream — adds less than 5% wall-clock overhead to the
smoke scenario (grown to :data:`NODES` nodes so one run takes over a second;
at its own 24 nodes a run is ~50 ms and the noise exceeds the ceiling), and
leaves the measured physics bit-identical.

Methodology: baseline and idle-fault runs alternate (A/B/A/B…) so clock
drift and cache warmth bias neither side, and the comparison uses the
*median* of the per-run timings.  Writes ``BENCH_fault_overhead.json``.
"""

from __future__ import annotations

import statistics
import time

from repro.experiments import get_scenario, run_experiment
from repro.jsonio import write_json

ARTIFACT = "BENCH_fault_overhead.json"
#: Paired (baseline, idle-fault) runs.
REPEATS = 7
#: Acceptance ceiling on the idle controller's relative overhead.
MAX_OVERHEAD = 0.05
#: Population of the timed run: large enough that one run is over a second.
NODES = 1024

#: A plan that keeps the controller busy every round without changing
#: anything: zero-probability churn walks the registry and draws from its
#: own isolated RNG stream each tick (the exact legacy ChurnInjector draw
#: sequence), so nothing observable changes — the honest worst case for
#: "idle".
IDLE_PLAN_ENTRIES = (
    (("kind", "churn"), ("down_probability", 0.0), ("up_probability", 0.0)),
)


def _configs():
    base = get_scenario("smoke").config.with_overrides(nodes=NODES)
    idle = base.with_overrides(fault_plan=IDLE_PLAN_ENTRIES)
    return base, idle


def _strip_config(result) -> dict:
    payload = result.to_dict()
    payload.pop("config")
    return payload


def measure() -> dict:
    base_config, idle_config = _configs()
    # Warm-up (imports, registry population, allocator) outside the timings.
    baseline_result = run_experiment(base_config)
    idle_result = run_experiment(idle_config)
    assert _strip_config(idle_result) == _strip_config(baseline_result), (
        "an idle FaultController must not perturb the physics"
    )

    base_times, idle_times = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run_experiment(base_config)
        base_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        run_experiment(idle_config)
        idle_times.append(time.perf_counter() - start)

    base_median = statistics.median(base_times)
    idle_median = statistics.median(idle_times)
    overhead = (idle_median - base_median) / base_median
    return {
        "schema": "bench-fault-overhead/v1",
        "scenario": "smoke",
        "nodes": NODES,
        "repeats": REPEATS,
        "baseline_median_seconds": base_median,
        "idle_fault_median_seconds": idle_median,
        "overhead_fraction": overhead,
        "max_overhead_fraction": MAX_OVERHEAD,
        "physics_identical": True,
    }


def test_fault_controller_idle_overhead(benchmark):
    row = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["rows"] = [row]
    write_json(ARTIFACT, row)
    print()
    print(
        f"fault overhead: baseline {row['baseline_median_seconds']*1e3:.1f}ms, "
        f"idle-fault {row['idle_fault_median_seconds']*1e3:.1f}ms, "
        f"overhead {row['overhead_fraction']*100:+.2f}% "
        f"(ceiling {MAX_OVERHEAD*100:.0f}%)"
    )
    assert row["overhead_fraction"] < MAX_OVERHEAD
