"""Scenario builders: turn an :class:`ExperimentConfig` into live objects.

Construction is registry-driven: every builder here decomposes the flat
config into a :class:`~repro.registry.specs.StackSpec` and delegates to the
component registries (:mod:`repro.registry.builtins`), so new systems,
membership views, interest models, and policies plug in by *registering*
rather than by editing dispatch code.  The ``build_*`` functions keep their
historical flat-config signatures because the runner, the benchmarks, and a
few examples call them directly (for example the selfish-node experiment,
which swaps node classes for part of the population).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.policy import FairnessPolicy
from ..registry.builtins import (
    MEMBERSHIP,
    SYSTEMS,
    BuildContext,
    build_interest_model,
    build_popularity as _build_popularity_for_spec,
    build_stack,
    resolve_policy_kind,
)
from ..registry.specs import StackSpec
from ..sim.engine import Simulator
from ..sim.network import BernoulliLoss, Network, NoLoss
from ..workloads.popularity import TopicPopularity
from .config import ExperimentConfig

__all__ = [
    "build_simulation",
    "build_membership_provider",
    "build_popularity",
    "build_interest",
    "build_system",
    "resolve_policy",
    "system_names",
    "Scenario",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "iter_scenarios",
    "LIVE_SCENARIO",
]


def system_names() -> Tuple[str, ...]:
    """Names accepted by :func:`build_system` (the system registry's keys)."""
    return tuple(SYSTEMS.names())


def build_simulation(config: ExperimentConfig) -> Tuple[Simulator, Network]:
    """Create the simulator and network described by the config."""
    simulator = Simulator(seed=config.seed)
    loss = BernoulliLoss(config.loss_rate) if config.loss_rate > 0 else NoLoss()
    network = Network(simulator, loss_model=loss)
    return simulator, network


def build_membership_provider(config: ExperimentConfig, network: Network):
    """Pick the membership provider named in the config (registry lookup)."""
    spec = StackSpec.from_config(config)
    context = BuildContext(spec=spec, scheduler=None, network=network, node_ids=spec.node_ids())
    return MEMBERSHIP.get(spec.membership.kind).factory(context)


def build_popularity(config: ExperimentConfig) -> TopicPopularity:
    """Topic popularity for the config (hierarchical for the dam system)."""
    return _build_popularity_for_spec(StackSpec.from_config(config))


def build_interest(config: ExperimentConfig, popularity: TopicPopularity):
    """Interest model for the config (registry lookup)."""
    return build_interest_model(StackSpec.from_config(config), popularity)


def resolve_policy(config: ExperimentConfig) -> FairnessPolicy:
    """The fairness policy named in the config (registry lookup)."""
    return resolve_policy_kind(config.fairness_policy)


def build_system(
    config: ExperimentConfig,
    simulator: Simulator,
    network: Network,
    popularity: Optional[TopicPopularity] = None,
    telemetry=None,
):
    """Build the dissemination system named by ``config.system``.

    Thin flat-config wrapper over :func:`repro.registry.builtins.build_stack`;
    unknown system names raise a :class:`~repro.registry.base.RegistryError`
    (a ``ValueError``) listing the registered systems.  ``telemetry``
    threads the runner's shared store into node-level instruments.
    """
    return build_stack(
        StackSpec.from_config(config),
        simulator,
        network,
        popularity=popularity,
        telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# Named-scenario registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A named, documented experiment configuration.

    The registry gives the CLI (``python -m repro list-scenarios``) and the
    benchmark suite a shared vocabulary of starting points; every scenario is
    just an :class:`ExperimentConfig` plus a description of what it models.
    """

    name: str
    description: str
    config: ExperimentConfig

    @property
    def spec(self) -> StackSpec:
        """The scenario's config decomposed into nested component specs."""
        return StackSpec.from_config(self.config)


_SCENARIOS: Dict[str, Scenario] = {}


def register_scenario(
    name: str, config: ExperimentConfig, description: str = "", replace: bool = False
) -> Scenario:
    """Add a scenario to the registry (``replace`` guards against typos)."""
    if name in _SCENARIOS and not replace:
        raise ValueError(f"scenario {name!r} is already registered")
    scenario = Scenario(name=name, description=description, config=config)
    _SCENARIOS[name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name; raises with the known names on a miss."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known scenarios: {', '.join(scenario_names())}"
        ) from None


def scenario_names() -> List[str]:
    """Registered scenario names, in registration order."""
    return list(_SCENARIOS)


def iter_scenarios() -> List[Scenario]:
    """Registered scenarios, in registration order."""
    return list(_SCENARIOS.values())


#: Baseline shared by most benchmarks: medium-sized system, Zipf topic
#: popularity, heterogeneous (Zipf) interest, moderate traffic.
_BASE = ExperimentConfig(
    name="base",
    nodes=96,
    topics=16,
    topic_exponent=1.0,
    interest_model="zipf",
    max_topics_per_node=6,
    publication_rate=4.0,
    duration=25.0,
    drain_time=15.0,
    fanout=4,
    gossip_size=8,
    seed=2007,
)

register_scenario(
    "base",
    _BASE,
    "Benchmark baseline: 96 nodes, 16 Zipf topics, skewed interest, moderate traffic",
)
register_scenario(
    "smoke",
    ExperimentConfig(
        name="smoke",
        nodes=24,
        topics=6,
        interest_model="zipf",
        max_topics_per_node=4,
        publication_rate=2.0,
        duration=6.0,
        drain_time=5.0,
        fanout=3,
        gossip_size=8,
        seed=7,
    ),
    "Tiny fast run (24 nodes, ~1s) for CLI smoke tests and quick sanity checks",
)
register_scenario(
    "fig1",
    _BASE.with_overrides(name="fig1", duration=20.0, drain_time=12.0),
    "Figure 1 workload: skewed interest for the cross-system fairness comparison",
)
register_scenario(
    "fig2-topic",
    _BASE.with_overrides(
        name="fig2",
        fairness_policy="topic",
        interest_model="zipf",
        max_topics_per_node=8,
        nodes=80,
        duration=20.0,
        drain_time=12.0,
    ),
    "Figure 2 workload: topic-based policy, subscription counts spread 1..8",
)
register_scenario(
    "fig3-expressive",
    _BASE.with_overrides(
        name="fig3",
        system="fair-gossip",
        interest_model="content",
        topics_per_node=2,
        fairness_policy="expressive",
        nodes=80,
        duration=20.0,
        drain_time=12.0,
    ),
    "Figure 3 workload: content-based filters, fanout/payload fairness levers",
)
register_scenario(
    "fig4-push",
    _BASE.with_overrides(
        name="fig4",
        system="gossip",
        interest_model="uniform",
        topics_per_node=2,
        topics=4,
        nodes=128,
        duration=15.0,
        drain_time=15.0,
        publication_rate=2.0,
    ),
    "Figure 4 workload: plain push gossip for fanout/loss reliability sweeps",
)
register_scenario(
    "churn",
    ExperimentConfig(
        name="churn",
        system="fair-gossip",
        nodes=64,
        topics=8,
        duration=20.0,
        drain_time=15.0,
        publication_rate=2.0,
        loss_rate=0.05,
        churn_down_probability=0.03,
        churn_up_probability=0.5,
        fanout=4,
        seed=13,
    ),
    "Stress run: fair gossip under 5% loss plus node churn (robustness check)",
)
register_scenario(
    "smoke-churn",
    ExperimentConfig(
        name="smoke-churn",
        nodes=24,
        topics=6,
        interest_model="zipf",
        max_topics_per_node=4,
        publication_rate=2.0,
        duration=6.0,
        drain_time=5.0,
        fanout=3,
        gossip_size=8,
        seed=7,
        churn_down_probability=0.05,
        churn_up_probability=0.5,
    ),
    "Smoke run under continuous node churn (fault-injection fast path)",
)
register_scenario(
    "smoke-partition",
    ExperimentConfig(
        name="smoke-partition",
        nodes=24,
        topics=6,
        interest_model="zipf",
        max_topics_per_node=4,
        publication_rate=2.0,
        duration=6.0,
        drain_time=6.0,
        fanout=3,
        gossip_size=8,
        seed=7,
        fault_partition_at=2.0,
        fault_partition_heal_after=3.0,
        fault_partition_fraction=0.5,
    ),
    "Smoke run with a transient half/half partition healing mid-run",
)
register_scenario(
    "smoke-domains",
    ExperimentConfig(
        name="smoke-domains",
        nodes=24,
        topics=6,
        interest_model="zipf",
        max_topics_per_node=4,
        publication_rate=2.0,
        duration=6.0,
        drain_time=6.0,
        fanout=3,
        gossip_size=8,
        seed=7,
        topology_domains=4,
        topology_bridges_per_domain=2,
        topology_cross_latency=0.5,
        topology_cross_loss=0.02,
        fault_plan=(
            (
                ("kind", "partition"),
                ("at", 2.0),
                ("heal_after", 2.0),
                ("domains", ("d1",)),
            ),
        ),
    ),
    "Smoke run on a 4-domain topology with bridge relays, a geo latency/loss "
    "penalty on cross-domain links, and a transient partition isolating "
    "domain d1 that heals mid-run",
)
register_scenario(
    "smoke-lazy",
    ExperimentConfig(
        name="smoke-lazy",
        system="lazy-push",
        nodes=24,
        topics=6,
        interest_model="zipf",
        max_topics_per_node=4,
        publication_rate=2.0,
        duration=6.0,
        drain_time=8.0,
        fanout=3,
        gossip_size=8,
        seed=7,
        loss_rate=0.15,
    ),
    "Smoke run of two-phase lazy-push under 15% loss (pull recovery fast path); "
    "the longer drain covers the slow digest cadence's convergence",
)
#: What ``serve``/``loadgen`` build when no ``--scenario`` is named.
LIVE_SCENARIO = "live"

register_scenario(
    LIVE_SCENARIO,
    ExperimentConfig(
        name="live",
        nodes=25,
        seed=2007,
        topics=8,
        topic_exponent=1.0,
        interest_model="zipf",
        max_topics_per_node=4,
        publisher_fraction=1.0,
        fanout=5,
        gossip_size=24,
        round_period=1.0,
        membership="cyclon",
        # Live runs push far more events per time unit than the simulator
        # scenarios; size the buffer so an event survives its dissemination
        # window instead of being evicted mid-spread, and spread forwarding
        # effort evenly across buffered events ("newest" starves anything
        # older than a round under heavy load).  Only live builds read these.
        extra=(("buffer_capacity", 4000), ("selection_strategy", "least-forwarded")),
    ),
    "Live-runtime default (serve/loadgen without --scenario): 25-node push "
    "gossip, every node a publisher, buffers tuned for wall-clock load",
)
register_scenario(
    "subscription-churn",
    ExperimentConfig(
        name="sub-churn",
        system="dks",
        nodes=48,
        topics=8,
        duration=15.0,
        drain_time=10.0,
        publication_rate=1.0,
        subscription_churn_rate=4.0,
        seed=17,
    ),
    "Subscription maintenance workload on the DKS grouping (who pays for churn)",
)
