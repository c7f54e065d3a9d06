"""Lazy-push vs plain push under faults: reliability per byte.

The two-phase lazy probabilistic broadcast trades eager redundancy for
digest-driven pull recovery, so its claim is not raw delivery ratio — plain
push already saturates that on friendly networks — but *reliability per
byte*: the delivery ratio divided by the total bytes the network carried.
This benchmark pits ``lazy-push`` against ``gossip`` on identical seeds
under two FaultPlan scenarios:

* **loss** — 15% ambient Bernoulli loss plus a perturbation window adding
  25% extra loss mid-run (the recovery phase's home turf);
* **partition** — 5% ambient loss plus a half/half partition healing
  mid-run (recovery across the healed cut).

Both systems run the same 40-node, 18-round workload with a drain long
enough for the lazy digest cadence to converge.  The headline assertion:
lazy-push beats plain push on mean reliability-per-byte under the loss
scenario.  Writes ``BENCH_lazy_recovery.json``.
"""

from __future__ import annotations

from repro.experiments import ExperimentConfig, run_experiment
from repro.jsonio import write_json

ARTIFACT = "BENCH_lazy_recovery.json"
SEEDS = (7, 11, 23, 42)
NODES = 40

#: FaultPlan entries per scenario (the encoding ``--fault plan.json`` uses).
SCENARIO_FAULTS = {
    "loss": {
        "loss_rate": 0.15,
        "fault_plan": (
            (("kind", "perturb"), ("at", 3.0), ("until", 7.0), ("loss_rate", 0.25)),
        ),
    },
    "partition": {
        "loss_rate": 0.05,
        "fault_plan": (
            (("kind", "partition"), ("at", 3.0), ("heal_after", 3.0), ("fraction", 0.5)),
        ),
    },
}


def _config(system: str, scenario: str, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"lazy-recovery/{scenario}/{system}",
        system=system,
        nodes=NODES,
        topics=6,
        interest_model="zipf",
        max_topics_per_node=4,
        publication_rate=2.0,
        duration=8.0,
        drain_time=10.0,
        fanout=3,
        gossip_size=8,
        seed=seed,
        **SCENARIO_FAULTS[scenario],
    )


def _run(system: str, scenario: str, seed: int) -> dict:
    result = run_experiment(_config(system, scenario, seed), keep_system=True)
    bytes_sent = result.system.network.stats.bytes_sent
    ratio = result.reliability.delivery_ratio
    row = {
        "system": system,
        "scenario": scenario,
        "seed": seed,
        "delivery_ratio": ratio,
        "bytes_sent": bytes_sent,
        "reliability_per_byte": ratio / bytes_sent if bytes_sent else 0.0,
    }
    if system == "lazy-push":
        nodes = result.system.nodes.values()
        row["pulls_issued"] = sum(node.pulls_issued for node in nodes)
        row["pulls_served"] = sum(node.pulls_served for node in nodes)
        row["recoveries"] = sum(node.recoveries for node in nodes)
    return row


def measure() -> dict:
    rows = [
        _run(system, scenario, seed)
        for scenario in SCENARIO_FAULTS
        for seed in SEEDS
        for system in ("gossip", "lazy-push")
    ]

    def mean_rpb(system: str, scenario: str) -> float:
        values = [
            row["reliability_per_byte"]
            for row in rows
            if row["system"] == system and row["scenario"] == scenario
        ]
        return sum(values) / len(values)

    summary = {
        scenario: {
            "push_reliability_per_byte": mean_rpb("gossip", scenario),
            "lazy_reliability_per_byte": mean_rpb("lazy-push", scenario),
            "lazy_advantage": mean_rpb("lazy-push", scenario) / mean_rpb("gossip", scenario),
        }
        for scenario in SCENARIO_FAULTS
    }
    return {
        "schema": "bench-lazy-recovery/v1",
        "nodes": NODES,
        "seeds": list(SEEDS),
        "rows": rows,
        "summary": summary,
    }


def test_lazy_recovery_reliability_per_byte(benchmark):
    artifact = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["rows"] = artifact["rows"]
    write_json(ARTIFACT, artifact)
    print()
    for scenario, entry in artifact["summary"].items():
        print(
            f"{scenario}: push {entry['push_reliability_per_byte']:.3e}, "
            f"lazy {entry['lazy_reliability_per_byte']:.3e} "
            f"({(entry['lazy_advantage'] - 1) * 100:+.1f}% per byte)"
        )
    # The headline claim: under loss, recovery buys more reliability per
    # byte than eager redundancy does.
    assert artifact["summary"]["loss"]["lazy_advantage"] > 1.0
    # Recovery must actually have run (lazy with zero pulls is just push).
    lazy_rows = [row for row in artifact["rows"] if row["system"] == "lazy-push"]
    assert all(row["recoveries"] > 0 for row in lazy_rows)
