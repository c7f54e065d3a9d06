"""Dissemination-tracing overhead on the acceptance scenario.

Runs the pinned-seed ``smoke-lazy`` experiment, grown to :data:`NODES` nodes
so one run takes over a second, untraced and with a
:class:`~repro.tracing.Tracer` at sample rates 0.0 / 0.1 / 1.0 (memory
sink), and reports the wall-time overhead of each against the untraced
baseline.  Timing is :func:`common.time_interleaved`: interleaved min-of-N
with the untraced arm timed twice, whose gap is the noise floor recorded
next to the overheads.  (At the scenario's own 24 nodes a run is ~50 ms and
run-to-run noise is several times the 1% being asserted.)

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

from typing import Callable, Dict, Optional

from common import time_interleaved
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


def _arm(rate: Optional[float]) -> Callable[[], tuple]:
    """One variant: a run of the scenario, untraced or traced at ``rate``."""
    config = get_scenario("smoke-lazy").config.with_overrides(nodes=NODES)

    def run() -> tuple:
        tracer = None if rate is None else Tracer(MemorySink(), sample_rate=rate)
        return run_experiment(config, tracer=tracer), tracer

    return run


def run_benchmark() -> Dict[str, object]:
    best, sample, noise_floor = time_interleaved(
        {"untraced": _arm(None), **{f"rate_{rate}": _arm(rate) for rate in RATES}}, ROUNDS
    )
    traced = [f"rate_{rate}" for rate in RATES]
    physics = {name: result.to_dict() for name, (result, _tracer) in sample.items()}
    return {
        "schema": "bench-trace-overhead/v1",
        "scenario": "smoke-lazy",
        "nodes": NODES,
        "rounds": ROUNDS,
        "best_seconds": best,
        "overhead_vs_untraced": {
            name: (best[name] - best["untraced"]) / best["untraced"] for name in traced
        },
        "noise_floor": noise_floor,
        "spans_emitted": {
            name: 0 if tracer is None else tracer.spans_emitted
            for name, (_result, tracer) in sample.items()
        },
        "physics_identical_to_untraced": {
            name: physics[name] == physics["untraced"] for name in traced
        },
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
