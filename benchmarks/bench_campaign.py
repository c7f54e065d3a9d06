"""Campaign layer: cold vs warm wall time and per-point scheduling overhead.

The campaign executor's value proposition is incrementality: a warm cache
turns a full artifact regeneration into pure cache reads plus rendering.
This benchmark quantifies that on two campaigns:

* **mini** — the two-target smoke campaign CI runs (compare + sweep over
  the 24-node smoke scenario): cold wall time, warm wall time, and the
  cold/warm speedup (the headline: warm must compute nothing);
* **chain** — a deliberately deep ``after`` chain (8 single-point services
  in sequence).  The executor's walk requires each link's predecessor
  first, so what the warm run measures is pure scheduling overhead per
  link: the walk, staleness probes, and cache loads with zero simulation.

Writes ``BENCH_campaign.json``.
"""

from __future__ import annotations

import os
import tempfile

from repro.campaign import CampaignExecutor, CampaignSpec
from repro.experiments.cache import ResultCache
from repro.experiments.executor import ParallelSweepExecutor
from repro.jsonio import write_json

ARTIFACT = "BENCH_campaign.json"
#: Length of the ``after`` chain.
DEPTH = 8

MINI_SPEC = {
    "schema": "campaign/v1",
    "name": "bench-mini",
    "services": {
        "mini-compare": {"scenario": "smoke", "compare": ["gossip", "fair-gossip"]},
        "mini-fanout": {"scenario": "smoke", "sweep": {"system.fanout": [2, 3]}},
    },
    "targets": {
        "compare-table": {"inputs": ["mini-compare"]},
        "fanout-table": {"inputs": ["mini-fanout"]},
    },
}


def _chain_spec(depth: int) -> CampaignSpec:
    """``depth`` single-point services, each ``after`` the previous one."""
    services = {}
    previous = None
    for index in range(depth):
        name = f"link-{index}"
        entry = {"scenario": "smoke", "set": {"seed": 1000 + index}}
        if previous is not None:
            entry["after"] = [previous]
        services[name] = entry
        previous = name
    payload = {
        "schema": "campaign/v1",
        "name": "bench-chain",
        "services": services,
        "targets": {"chain-table": {"inputs": list(services)}},
    }
    return CampaignSpec.from_dict(payload).validate()


def _execute(spec: CampaignSpec, cache_dir: str, out_dir: str):
    executor = CampaignExecutor(
        spec,
        executor=ParallelSweepExecutor(cache=ResultCache(cache_dir)),
        out_dir=out_dir,
    )
    return executor.run()


def _statuses(manifest) -> dict:
    """Per-node status, plus the inputs each target consumed."""
    nodes = {name: record.status for name, record in manifest.services.items()}
    for name, record in manifest.targets.items():
        nodes[name] = (record.status, record.inputs)
    return nodes


def _campaign_row(name: str, spec: CampaignSpec, root: str) -> dict:
    cache_dir = os.path.join(root, name, "cache")
    out_dir = os.path.join(root, name, "out")
    cold = _execute(spec, cache_dir, out_dir)
    warm = _execute(spec, cache_dir, out_dir)
    assert warm.totals()["computed"] == 0, warm.totals()
    # Warm and cold build the same nodes from the same inputs.
    assert _statuses(warm) == _statuses(cold)
    cold_seconds, warm_seconds = cold.timing.wall_seconds, warm.timing.wall_seconds
    points = warm.totals()["points"]
    return {
        "campaign": name,
        "points": cold.totals()["points"],
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds else 0.0,
        "warm_seconds_per_point": warm_seconds / points if points else 0.0,
    }


def measure() -> dict:
    mini = CampaignSpec.from_dict(MINI_SPEC).validate()
    chain = _chain_spec(DEPTH)
    with tempfile.TemporaryDirectory() as root:
        rows = [
            _campaign_row("mini", mini, root),
            _campaign_row("chain", chain, root),
        ]
    return {
        "schema": "bench-campaign/v2",
        "chain_depth": DEPTH,
        "rows": rows,
        "summary": {
            row["campaign"]: {
                "cold_seconds": row["cold_seconds"],
                "warm_seconds": row["warm_seconds"],
                "speedup": row["speedup"],
                "replanning_seconds_per_point": row["warm_seconds_per_point"],
            }
            for row in rows
        },
    }


def test_campaign_cold_vs_warm(benchmark):
    artifact = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["rows"] = artifact["rows"]
    write_json(ARTIFACT, artifact)
    print()
    for row in artifact["rows"]:
        print(
            f"{row['campaign']}: cold {row['cold_seconds']:.2f}s, "
            f"warm {row['warm_seconds']:.3f}s ({row['speedup']:.0f}x), "
            f"{row['warm_seconds_per_point'] * 1000:.1f} ms/point warm overhead"
        )
    for row in artifact["rows"]:
        # Warm must be a pure replan+render pass: strictly faster than cold.
        assert row["warm_seconds"] < row["cold_seconds"]
        # Scheduling a fully warm point is bookkeeping, not simulation: keep
        # it under an (extremely generous) 1 s even on slow CI boxes.
        assert row["warm_seconds_per_point"] < 1.0
