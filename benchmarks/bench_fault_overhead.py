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

Methodology: :func:`common.time_interleaved` — interleaved min-of-N timing
with the baseline timed twice, so the overhead is judged against the noise
floor this host measured in the same session.  Writes
``BENCH_fault_overhead.json``.
"""

from __future__ import annotations

from common import time_interleaved
from repro.experiments import get_scenario, run_experiment
from repro.jsonio import write_json

ARTIFACT = "BENCH_fault_overhead.json"
#: Interleaved measurement rounds (one run per arm per round).
ROUNDS = 7
#: Acceptance ceiling on the idle controller's relative overhead.
MAX_OVERHEAD = 0.05
#: Population of the timed run: large enough that one run is over a second.
NODES = 1024

#: A plan that keeps the controller busy every round without changing
#: anything: zero-probability churn walks the registry and draws from its
#: own isolated RNG stream each tick (one draw per unprotected node, as
#: pinned churn runs draw), so nothing observable changes — the honest worst case for
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
    best, sample, noise_floor = time_interleaved(
        {
            "baseline": lambda: run_experiment(base_config),
            "idle_fault": lambda: run_experiment(idle_config),
        },
        ROUNDS,
    )
    return {
        "schema": "bench-fault-overhead/v2",
        "scenario": "smoke",
        "nodes": NODES,
        "rounds": ROUNDS,
        "best_seconds": best,
        "overhead_fraction": (best["idle_fault"] - best["baseline"]) / best["baseline"],
        "noise_floor": noise_floor,
        "max_overhead_fraction": MAX_OVERHEAD,
        "physics_identical": _strip_config(sample["idle_fault"]) == _strip_config(sample["baseline"]),
    }


def test_fault_controller_idle_overhead(benchmark):
    row = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["rows"] = [row]
    write_json(ARTIFACT, row)
    best = row["best_seconds"]
    print()
    print(
        f"fault overhead: baseline {best['baseline']*1e3:.1f}ms, "
        f"idle-fault {best['idle_fault']*1e3:.1f}ms, "
        f"overhead {row['overhead_fraction']*100:+.2f}% "
        f"(ceiling {MAX_OVERHEAD*100:.0f}%, noise floor {row['noise_floor']*100:.2f}%)"
    )
    assert row["physics_identical"], "an idle FaultController must not perturb the physics"
    # Two timings of the same code differ by the noise floor, so that much
    # is not overhead.
    assert row["overhead_fraction"] < MAX_OVERHEAD + row["noise_floor"]
