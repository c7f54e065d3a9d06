"""Multi-domain topology: intra- vs cross-domain delivery under partition.

The topology layer (``repro.topology``) scopes gossip to domains, taxes
cross-domain links with a geo latency/loss matrix, and federates domains
through deterministic bridge relays.  This benchmark measures what that
buys and costs at 2/4/8 domains on the same 48-node workload:

* **intra vs cross latency** — mean delivery latency for recipients in the
  publisher's domain vs recipients reached over at least one bridge hop
  (the geo matrix adds 1.0 units per cross link, so the gap should show
  the bridge path, not noise);
* **reliability per byte** — delivery ratio over total bytes carried, the
  same economy metric ``bench_lazy_recovery`` uses, so the bridge overhead
  is comparable across the suite;
* **partition survival** — every run executes a FaultPlan that isolates
  domain ``d1`` mid-run and heals it; the headline assertion is that
  events published in *other* domains during the window still reach ``d1``
  after the heal (bridges re-relay across the healed cut).

Writes ``BENCH_domains.json``.
"""

from __future__ import annotations

from repro.experiments import ExperimentConfig, run_experiment
from repro.jsonio import write_json

ARTIFACT = "BENCH_domains.json"
SEEDS = (7, 23)
NODES = 48

DOMAIN_COUNTS = (2, 4, 8)

#: The partition window every cell runs: domain d1 drops off at t=3 and
#: heals at t=6; the drain is long enough for post-heal re-relays to land.
PARTITION_AT = 3.0
HEAL_AT = 6.0
FAULT_PLAN = (
    (
        ("kind", "partition"),
        ("at", PARTITION_AT),
        ("heal_after", HEAL_AT - PARTITION_AT),
        ("domains", ("d1",)),
    ),
)


def _config(domains: int, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"domains/{domains}",
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
        topology_domains=domains,
        topology_bridges_per_domain=2,
        topology_cross_latency=1.0,
        topology_cross_loss=0.02,
        fault_plan=FAULT_PLAN,
    )


def _publisher_of(event_id: str) -> str:
    # Event ids are ``publisher#sequence`` (see repro.pubsub.events).
    return event_id.rsplit("#", 1)[0]


def _run(domains: int, seed: int) -> dict:
    result = run_experiment(_config(domains, seed), keep_system=True)
    system = result.system
    domain_map = system.topology.domain_map
    router = system.topology.router

    intra, cross = [], []
    survived = 0
    for record in system.delivery_log.ordered_records():
        home = domain_map.domain(_publisher_of(record.event_id))
        target = domain_map.domain(record.node_id)
        (intra if home == target else cross).append(record.latency)
        # An other-domain event published while d1 was cut off, delivered
        # inside d1 after the heal: the bridge path survived the partition.
        if (
            target == "d1"
            and home != "d1"
            and PARTITION_AT <= record.published_at < HEAL_AT
            and record.delivered_at >= HEAL_AT
        ):
            survived += 1

    bytes_sent = system.network.stats.bytes_sent
    ratio = result.reliability.delivery_ratio
    return {
        "domains": domains,
        "seed": seed,
        "delivery_ratio": ratio,
        "bytes_sent": bytes_sent,
        "reliability_per_byte": ratio / bytes_sent if bytes_sent else 0.0,
        "intra_deliveries": len(intra),
        "cross_deliveries": len(cross),
        "intra_mean_latency": sum(intra) / len(intra) if intra else 0.0,
        "cross_mean_latency": sum(cross) / len(cross) if cross else 0.0,
        "bridge_relayed": router.relayed,
        "bridge_absorbed": router.absorbed,
        "bridge_duplicates": router.duplicates,
        "partition_survivals": survived,
    }


def measure() -> dict:
    rows = [_run(domains, seed) for domains in DOMAIN_COUNTS for seed in SEEDS]

    def mean(key: str, domains: int) -> float:
        values = [row[key] for row in rows if row["domains"] == domains]
        return sum(values) / len(values)

    summary = {
        str(domains): {
            "delivery_ratio": mean("delivery_ratio", domains),
            "intra_mean_latency": mean("intra_mean_latency", domains),
            "cross_mean_latency": mean("cross_mean_latency", domains),
            "reliability_per_byte": mean("reliability_per_byte", domains),
            "partition_survivals": mean("partition_survivals", domains),
        }
        for domains in DOMAIN_COUNTS
    }
    return {
        "schema": "bench-domains/v1",
        "nodes": NODES,
        "seeds": list(SEEDS),
        "partition_window": [PARTITION_AT, HEAL_AT],
        "rows": rows,
        "summary": summary,
    }


def test_domain_topology_latency_and_partition_survival(benchmark):
    artifact = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["rows"] = artifact["rows"]
    write_json(ARTIFACT, artifact)
    print()
    for domains, entry in artifact["summary"].items():
        print(
            f"{domains} domains: intra {entry['intra_mean_latency']:.2f}, "
            f"cross {entry['cross_mean_latency']:.2f} units, "
            f"delivery {entry['delivery_ratio']:.3f}, "
            f"{entry['partition_survivals']:.1f} post-heal deliveries into d1"
        )
    for row in artifact["rows"]:
        # Crossing a domain boundary must cost latency: geo tax + bridge hop.
        assert row["cross_mean_latency"] > row["intra_mean_latency"]
        # Bridges carried real traffic in every cell.
        assert row["bridge_relayed"] > 0 and row["bridge_absorbed"] > 0
        # The headline: cross-domain delivery survives the healed partition.
        assert row["partition_survivals"] > 0
        assert row["delivery_ratio"] > 0.85
