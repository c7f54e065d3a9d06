"""Dissemination-tracing overhead on the acceptance scenario.

Runs the pinned-seed ``smoke-lazy`` experiment, grown to :data:`NODES` nodes
so one run takes over a second, untraced and with a
:class:`~repro.tracing.Tracer` at sample rates 0.0 / 0.1 / 1.0 (memory
sink), and reports the wall-time overhead of each against the untraced
baseline.  Timings are min-of-N with the variants interleaved round-robin,
so scheduler noise and cache warmth hit every variant equally and the *best*
run — the one closest to the true cost — is what gets compared.  (At the
scenario's own 24 nodes a run is ~50 ms and run-to-run noise is several
times the 1% being asserted.)  The untraced variant is timed twice, as two
interleaved variants of the same code: the gap between their best runs is
the noise floor of this host, recorded next to the overheads so a reading
of either sign can be judged against it.

The contract being priced:

* at ``sample_rate=0`` the hot path pays only pre-bound ``is not None``
  checks (the sampler's rate-0 fast path returns before hashing), so the
  overhead must stay **under 1%** (plus the measured noise floor);
* at any rate the tracer draws no RNG and schedules nothing, so the
  measured physics (the full result artifact) must be byte-identical to the
  untraced run's.

Writes ``BENCH_trace_overhead.json`` and asserts both properties.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, Optional

from repro.experiments import run_experiment
from repro.experiments.scenarios import get_scenario
from repro.jsonio import MemorySink, write_json
from repro.tracing import Tracer

ARTIFACT = "BENCH_trace_overhead.json"
#: Interleaved measurement rounds (one run per arm per round).
ROUNDS = 7
#: Population of the timed run: large enough that one run is over a second.
NODES = 768

RATES = (0.0, 0.1, 1.0)

#: The headline acceptance bound: a disabled tracer costs under 1%.
RATE0_BOUND = 0.01


def _run_once(rate: Optional[float]) -> Dict[str, object]:
    """One timed run; seconds, physics, spans."""
    config = get_scenario("smoke-lazy").config.with_overrides(nodes=NODES)
    tracer = None if rate is None else Tracer(MemorySink(), sample_rate=rate)
    # Collector pauses land on whichever variant happens to trip the
    # threshold and dwarf the sub-1% effect being measured, so each sample
    # starts from a collected heap and runs with the collector off.
    gc.collect()
    gc.disable()
    started = time.perf_counter()
    try:
        result = run_experiment(config, tracer=tracer)
        elapsed = time.perf_counter() - started
    finally:
        gc.enable()
    return {
        "seconds": elapsed,
        "physics": result.to_dict(),
        "spans": 0 if tracer is None else tracer.spans_emitted,
    }


def run_benchmark() -> Dict[str, object]:
    variants: Dict[str, Optional[float]] = {"untraced": None, "untraced_again": None}
    for rate in RATES:
        variants[f"rate_{rate}"] = rate

    # Warm-up (imports, code caches), then interleaved min-of-N timing.
    for rate in variants.values():
        _run_once(rate)
    best: Dict[str, float] = {name: float("inf") for name in variants}
    sample: Dict[str, Dict[str, object]] = {}
    for _ in range(ROUNDS):
        for name, rate in variants.items():
            run = _run_once(rate)
            best[name] = min(best[name], run["seconds"])
            sample[name] = run

    baseline = best["untraced"]
    overhead = {
        name: (best[name] - baseline) / baseline
        for name, rate in variants.items()
        if rate is not None
    }
    physics_identical = {
        name: sample[name]["physics"] == sample["untraced"]["physics"]
        for name, rate in variants.items()
        if rate is not None
    }
    return {
        "schema": "bench-trace-overhead/v1",
        "scenario": "smoke-lazy",
        "nodes": NODES,
        "rounds": ROUNDS,
        "best_seconds": best,
        "overhead_vs_untraced": overhead,
        "noise_floor": abs(best["untraced_again"] - baseline) / baseline,
        "spans_emitted": {name: sample[name]["spans"] for name in variants},
        "physics_identical_to_untraced": physics_identical,
    }


def test_trace_overhead(benchmark):
    row = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    benchmark.extra_info["rows"] = [row]
    write_json(ARTIFACT, row)

    overhead = row["overhead_vs_untraced"]
    spans = row["spans_emitted"]
    print()
    print(
        "trace overhead vs untraced: "
        + " | ".join(
            f"{name} {overhead[name] * 100:+.2f}% ({spans[name]} spans)"
            for name in overhead
        )
        + f" | noise floor {row['noise_floor'] * 100:.2f}% -> {ARTIFACT}"
    )

    # Physics are identical at every rate: the tracer only observes.
    assert all(row["physics_identical_to_untraced"].values())

    # Sampling really gates span volume.
    assert spans["rate_0.0"] == 0
    assert 0 < spans["rate_0.1"] < spans["rate_1.0"]

    # The headline acceptance number: a disabled tracer (rate 0) costs under
    # 1% wall time — its hot path is one `is not None` check per message
    # plus the sampler's rate-0 fast path per publish.  Two timings of the
    # same code differ by the noise floor, so that much is not overhead.
    assert overhead["rate_0.0"] < RATE0_BOUND + row["noise_floor"]
