"""Metrics hot-path overhead of the streaming telemetry histogram.

``repro.telemetry``'s :class:`Histogram` writes each observation into a
bounded preallocated buffer and amortises a sort-and-bucket fold every
``fold_threshold`` records, so memory is O(buckets) and ``summary()`` is
O(buckets) no matter how many records were observed.

The headline metric is **ns per record all-in** — record N samples and
produce one summary, divided by N — because a histogram nobody summarises
is dead weight.  The raw ``observe``-only figure, the pre-bound instrument
path through the :class:`Telemetry` facade and a counter increment are
reported alongside, so the hot-path cost is visible in isolation.

Writes ``BENCH_metrics_overhead.json`` and asserts the acceptance criteria:
``observe`` is O(1) memory, and the bucket-interpolated quantiles stay close
to the exact ones of the fed stream.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import pytest

from repro.jsonio import write_json
from repro.telemetry import Histogram, Telemetry, percentile

ARTIFACT = "BENCH_metrics_overhead.json"
RECORDS = 1_000_000


def _values(count: int) -> List[float]:
    # Latency-shaped positives, deterministic; a 10k block re-fed in a loop
    # so the value stream itself stays out of cache-size effects.
    return [0.001 + (index % 9973) * 0.0007 for index in range(count)]


def _time_per_record(record: Callable[[float], None], values: List[float], total: int) -> float:
    started = time.perf_counter()
    fed = 0
    block = len(values)
    while fed < total:
        for value in values:
            record(value)
        fed += block
    return (time.perf_counter() - started) / fed * 1e9


def run_benchmark() -> Dict[str, object]:
    values = _values(10_000)

    histogram = Histogram()
    observe_ns = _time_per_record(histogram.observe, values, RECORDS)

    telemetry = Telemetry()
    bound_instrument = telemetry.histogram("latency", node="node-001")
    prebound_ns = _time_per_record(bound_instrument.observe, values, RECORDS)

    counter = telemetry.counter("events", node="node-001")
    counter_increment_ns = _time_per_record(lambda _v: counter.increment(), values, RECORDS)

    # All-in cost: record everything, then produce one summary.
    started = time.perf_counter()
    summary = histogram.summary()
    summary_seconds = time.perf_counter() - started

    # The exact quantiles of the stream that was fed (whole blocks of ``values``).
    exact = sorted(values * (RECORDS // len(values)))

    return {
        "schema": "bench-metrics-overhead/v2",
        "records": RECORDS,
        "histogram_observe_ns": observe_ns,
        "histogram_per_record_all_in_ns": observe_ns + summary_seconds / RECORDS * 1e9,
        "summary_seconds": summary_seconds,
        "prebound_instrument_observe_ns": prebound_ns,
        "counter_increment_ns": counter_increment_ns,
        "retained_buffer_plus_buckets": histogram.pending_count + histogram.bucket_count,
        "quantile_agreement": {
            "p50": {"exact": percentile(exact, 0.50), "streaming": summary.p50},
            "p99": {"exact": percentile(exact, 0.99), "streaming": summary.p99},
        },
    }


def test_metrics_overhead(benchmark):
    row = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    benchmark.extra_info["rows"] = [row]
    write_json(ARTIFACT, row)

    print()
    print(
        f"histogram observe: {row['histogram_observe_ns']:.0f} ns/record | "
        f"all-in (record + summary): {row['histogram_per_record_all_in_ns']:.0f} | "
        f"pre-bound instrument: {row['prebound_instrument_observe_ns']:.0f} | "
        f"retained: {row['retained_buffer_plus_buckets']} buffer+buckets "
        f"after {RECORDS} records -> {ARTIFACT}"
    )

    # O(1) memory: a bounded buffer plus bounded buckets after RECORDS
    # observations.
    assert row["retained_buffer_plus_buckets"] < 8192

    # Bounded quantiles stay close to the exact ones on latency-shaped data.
    for quantile in row["quantile_agreement"].values():
        assert quantile["streaming"] == pytest.approx(quantile["exact"], rel=0.15)
