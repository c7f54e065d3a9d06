"""Scale curve of the simulator: wall time against nodes and against buffered events.

Four curves, one row per point, every row in a fresh child process (so peak
RSS is the row's own and nothing is warm from the previous one):

* ``fig4-push`` at :data:`NODE_COUNTS` nodes — cost against population at a
  low publication rate, where engine, network and membership do the work;
* lazy push at :data:`LAZY_NODE_COUNTS` nodes — perfbench's
  ``sim-lazy-domains-faults`` run (``smoke-domains`` on ``lazy-push`` with
  loss, a healing partition and a crash wave of the same share of nodes) at
  each size: digest and pull recovery, bridges and the fault controller;
* ``fig3-expressive`` at 128 nodes with ``publication_rate``
  :data:`PUBLICATION_RATES` — cost against what every node *holds*: the rate
  sets how many events sit in each gossip buffer, while a round still sends
  at most ``gossip_size`` of them, so ``ms_per_gossip_round`` flat along this
  axis is what "a round costs what it sends" means;
* ``fig1`` on :data:`STRUCTURED_SYSTEMS` at :data:`NODE_COUNTS` nodes — the
  structured baselines, which run no gossip rounds (``ms_per_gossip_round``
  is ``null``) and spend their time routing and fanning out messages.

A row's wall time is :func:`perfbench.stats.undisturbed_median` over
:data:`REPS` repetitions of the same deterministic run, and ``wall_min_s`` /
``wall_max_s`` give their spread.  Rows carry a
``label`` (the code they were measured on); a run replaces the rows of its
own label in ``BENCH_scale.json`` and keeps the others, so the file can hold
a change and the parent it is compared against::

    PYTHONPATH=src python benchmarks/bench_scale.py                   # label "result"
    PYTHONPATH=<parent checkout>/src python benchmarks/bench_scale.py --label parent
    PYTHONPATH=src python benchmarks/bench_scale.py --parent <parent checkout>
    PYTHONPATH=src python benchmarks/bench_scale.py --quick            # small, schema check only

With ``--parent`` each point is measured on both checkouts, the side that
goes first alternating point by point, so host drift lands on both sides
alike instead of between them; the rows of both labels are replaced.

``messages_per_s`` counts messages sent, not engine events: the engine
delivers every same-instant send wave as one event, so its count says how
the messages were grouped rather than how much work was done.

Open on ROADMAP item 9: N = 8192.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _ROOT)  # perfbench
sys.path.append(os.path.join(_ROOT, "src"))  # repro, unless PYTHONPATH already has one

from perfbench import workloads  # noqa: E402
from perfbench.stats import undisturbed_median  # noqa: E402

ARTIFACT = "BENCH_scale.json"
SCHEMA = "bench-scale/v3"
REPS = 3
NODE_COUNTS = (128, 512, 2048)
LAZY_NODE_COUNTS = (256, 1024, 2048)
LAZY_WORKLOAD = "sim-lazy-domains-faults"
LAZY_SEED = 1000
PUBLICATION_RATES = (5.0, 20.0, 80.0)
STRUCTURED_SYSTEMS = ("scribe", "dam")
ROW_FIELDS = (
    "label", "scenario", "system", "nodes", "publication_rate", "reps", "wall_s", "wall_min_s", "wall_max_s",
    "peak_rss_mb", "messages_per_s", "ms_per_node", "ms_per_gossip_round", "gossip_rounds", "delivery_ratio",
)


def points(quick: bool) -> List[Dict[str, object]]:
    """The curve's points as ``run_experiment`` overrides per scenario."""
    node_counts = (24, 48) if quick else NODE_COUNTS
    rates = (5.0, 20.0) if quick else PUBLICATION_RATES
    return [
        {"scenario": "fig4-push", "overrides": {"nodes": nodes}} for nodes in node_counts
    ] + [
        lazy_point(nodes) for nodes in ((48,) if quick else LAZY_NODE_COUNTS)
    ] + [
        {
            "scenario": "fig3-expressive",
            "overrides": {"nodes": 24 if quick else 128, "publication_rate": rate, "gossip_size": 32},
        }
        for rate in rates
    ] + [
        {"scenario": "fig1", "overrides": {"nodes": nodes, "system": system}}
        for system in (("dam",) if quick else STRUCTURED_SYSTEMS)
        for nodes in ((24,) if quick else NODE_COUNTS)
    ]


def lazy_point(nodes: int) -> Dict[str, object]:
    """perfbench's lazy workload run at ``nodes`` nodes.

    Its overrides, with ``nodes`` replaced, and its crash wave drawn the way
    perfbench draws it (``max(2, nodes // 48)`` victims, bridges spared);
    at 256 nodes this is the workload's own run for :data:`LAZY_SEED`.
    """
    run = workloads.build_inputs(LAZY_WORKLOAD, LAZY_SEED)["runs"][0]
    victims = max(2, nodes // 48)
    crash_rng = workloads._rng(LAZY_WORKLOAD, LAZY_SEED, "crash")
    return {
        **run,
        "overrides": {**run["overrides"], "nodes": nodes},
        "crash_victims": victims,
        "crash_order": workloads._crash_order(crash_rng, nodes, victims, bridges=8),
    }


def measure_point(point: Dict[str, object], reps: int) -> Dict[str, object]:
    """Child side: run one point ``reps`` times in this process and describe it."""
    import gc
    import resource
    import time

    import repro
    from cpu_ab import build_configs
    from repro.experiments import run_experiment

    (config,) = build_configs(repro, [point])
    walls = []
    for _ in range(reps):
        gc.collect()
        started = time.perf_counter()
        result = run_experiment(config, keep_system=True)
        walls.append(time.perf_counter() - started)
    wall = undisturbed_median(walls)
    rounds = result.final_snapshot.counter_total("gossip.rounds")
    return {
        "scenario": point["scenario"],
        "system": config.system,
        "nodes": config.nodes,
        "publication_rate": config.publication_rate,
        "reps": reps,
        "wall_s": round(wall, 4),
        "wall_min_s": round(min(walls), 4),
        "wall_max_s": round(max(walls), 4),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "messages_per_s": round(result.system.network.stats.sent / wall),
        "ms_per_node": round(wall * 1000.0 / config.nodes, 4),
        "ms_per_gossip_round": round(wall * 1000.0 / rounds, 4) if rounds else None,
        "gossip_rounds": int(rounds),
        "delivery_ratio": round(result.reliability.delivery_ratio, 4),
    }


def measure(sides: Dict[str, Optional[str]], quick: bool) -> List[Dict[str, object]]:
    """Parent side: one child process per point and side, in curve order.

    ``sides`` maps a label to the ``src`` directory its children import
    (``None``: this process's own ``PYTHONPATH``); with two sides the one
    that goes first alternates point by point.
    """
    reps = 2 if quick else REPS
    rows: Dict[str, List[Dict[str, object]]] = {label: [] for label in sides}
    for index, point in enumerate(points(quick)):
        for label in list(sides)[:: 1 if index % 2 == 0 else -1]:
            src = sides[label]
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child", json.dumps(point), "--reps", str(reps)],
                check=True, capture_output=True, text=True,
                env=None if src is None else dict(os.environ, PYTHONPATH=src),
            )
            row = {"label": label, **json.loads(child.stdout)}
            rows[label].append(row)
            print("  ".join(f"{key}={row[key]}" for key in ROW_FIELDS), flush=True)
    return [row for label in sides for row in rows[label]]


def check_schema(artifact: Dict[str, object]) -> None:
    assert artifact["schema"] == SCHEMA
    assert artifact["rows"], "no rows"
    for row in artifact["rows"]:
        assert set(row) == set(ROW_FIELDS), sorted(set(row) ^ set(ROW_FIELDS))
        assert row["wall_s"] > 0 and row["messages_per_s"] > 0 and row["peak_rss_mb"] > 0
        assert row["wall_min_s"] <= row["wall_s"] <= row["wall_max_s"]
        assert (row["ms_per_gossip_round"] is None) == (row["gossip_rounds"] == 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", default="result", help="whose code the rows describe")
    parser.add_argument("--parent", help="also measure this checkout as label 'parent', alternating point by point")
    parser.add_argument("--quick", action="store_true", help="small sizes; check the schema, write nothing")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--reps", type=int, default=REPS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure_point(json.loads(args.child), args.reps)))
        return 0
    from repro.jsonio import load_json, write_json

    sides: Dict[str, Optional[str]] = {args.label: None}
    if args.parent:
        sides = {"parent": os.path.join(os.path.abspath(args.parent), "src"), **sides}
    rows = measure(sides, args.quick)
    if not args.quick and os.path.exists(ARTIFACT):
        kept = load_json(ARTIFACT, SCHEMA, ValueError, "scale curve")["rows"]
        rows = [row for row in kept if row["label"] not in sides] + rows
    artifact = {"schema": SCHEMA, "rows": rows}
    check_schema(artifact)
    if not args.quick:
        write_json(ARTIFACT, artifact)
    return 0


def test_scale_curve_schema():
    """``pytest benchmarks/`` runs the quick size: every point builds, runs and fits the schema."""
    assert main(["--quick"]) == 0


if __name__ == "__main__":
    sys.exit(main())
