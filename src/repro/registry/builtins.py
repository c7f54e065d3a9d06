"""Built-in component registrations and the registry-driven stack builder.

This module populates the five registries — :data:`SYSTEMS`,
:data:`MEMBERSHIP`, :data:`INTEREST`, :data:`WORKLOADS`, :data:`POLICIES` —
with every protocol in the repository, and provides
:func:`build_stack`: the single construction function both the simulator
runner and the live runtime call.

System factories receive a :class:`BuildContext` carrying the scheduling
substrate; because the live :class:`~repro.runtime.scheduler.AsyncScheduler`
and :class:`~repro.runtime.network.RuntimeNetwork` duck-type the simulator's
``Simulator``/``Network`` surface, the *same factory* builds a system for
either world — which is what lets ``python -m repro serve --scenario X``
run any registered scenario live.

Registering your own protocol::

    from repro.registry import SYSTEMS, Param

    def build_my_system(ctx):
        return MySystem(ctx.scheduler, ctx.network, list(ctx.node_ids),
                        fanout=ctx.spec.system.fanout)

    SYSTEMS.register(
        "my-system", build_my_system,
        description="What it does and which baseline it answers",
        params=[Param("fanout", "peers contacted per round")],
    )

after which ``--set system.kind=my-system``, ``compare --systems``, sweeps,
caching, and ``serve --scenario`` all pick it up with no dispatch edits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence

from ..core.policy import EXPRESSIVE_POLICY, TOPIC_BASED_POLICY, FairnessPolicy
from ..jsonio import suggest
from ..workloads.interest import AttributeInterest, CommunityInterest, UniformInterest, ZipfInterest
from ..workloads.popularity import TopicPopularity
from ..workloads.publications import ContentPublicationWorkload, TopicPublicationWorkload
from .base import Param, Registry, RegistryError
from .specs import StackSpec

if TYPE_CHECKING:  # annotations only: each factory imports the system it builds
    from ..brokers.broker import BrokerSystem
    from ..core.fair_gossip import FairGossipSystem
    from ..damulticast.dam import DataAwareMulticastSystem
    from ..dht.dks import DksSystem
    from ..dht.scribe import ScribeSystem
    from ..dht.splitstream import SplitStreamSystem
    from ..gossip.system import GossipSystem

__all__ = [
    "SYSTEMS",
    "MEMBERSHIP",
    "INTEREST",
    "WORKLOADS",
    "POLICIES",
    "BuildContext",
    "build_stack",
    "build_popularity",
    "build_interest_model",
    "build_workload",
    "workload_kind",
    "resolve_policy_kind",
    "all_registries",
    "GOSSIP_KINDS",
]

# Registering a system, membership view or topology imports none of it: each
# factory imports what it builds when it is called, so a run loads only the
# protocols it uses.

SYSTEMS = Registry("system")
MEMBERSHIP = Registry("membership")
INTEREST = Registry("interest model")
WORKLOADS = Registry("workload")
POLICIES = Registry("fairness policy")


def all_registries() -> Dict[str, Registry]:
    """The five registries, keyed by their spec section name."""
    return {
        "system": SYSTEMS,
        "membership": MEMBERSHIP,
        "interest": INTEREST,
        "workload": WORKLOADS,
        "policy": POLICIES,
    }


@dataclass
class BuildContext:
    """Everything a system factory needs to assemble a stack.

    ``scheduler`` and ``network`` are either the discrete-event pair
    (:class:`~repro.sim.engine.Simulator`, :class:`~repro.sim.network.Network`)
    or the live pair (:class:`~repro.runtime.scheduler.AsyncScheduler`,
    :class:`~repro.runtime.network.RuntimeNetwork`); factories must only use
    the shared duck-typed surface (``now``, ``rng``, ``schedule*``,
    ``register``/``send``/``alive_nodes``).  Nothing here says which engine
    it is, so one spec builds the same nodes on both.
    """

    spec: StackSpec
    scheduler: Any
    network: Any
    node_ids: Sequence[str]
    popularity: Optional[TopicPopularity] = None
    #: Shared :class:`~repro.telemetry.Telemetry` store, or ``None``.
    #: Gossip-family factories hand it to their nodes so node-level
    #: instruments (round/message/delivery counters, controller gauges)
    #: appear in snapshots of spec-built stacks in both worlds.  Purely
    #: observational: recording draws no randomness and schedules nothing,
    #: so simulator results are bit-identical with or without it.
    telemetry: Optional[Any] = None
    #: Compiled :class:`~repro.topology.domains.DomainMap` when the spec has
    #: a topology section; constrains membership sampling to intra-domain
    #: views (see :meth:`membership_provider`) and is consumed by
    #: :func:`build_stack` to install the geo matrix and bridge relays.
    domain_map: Optional[Any] = None

    def membership_provider(self):
        """Build the membership provider named by ``spec.membership.kind``.

        Under a multi-domain topology the provider is wrapped so every
        node's view stays inside its own domain — cross-domain traffic goes
        through bridge relays, never through gossip partner selection.
        """
        provider = MEMBERSHIP.get(self.spec.membership.kind).factory(self)
        if self.domain_map is not None:
            from ..topology.membership import domain_scoped_provider

            provider = domain_scoped_provider(provider, self.domain_map)
        return provider

    def policy(self) -> FairnessPolicy:
        """Resolve the fairness policy named by ``spec.policy.kind``."""
        return POLICIES.get(self.spec.policy.kind).factory(self.spec)


# --------------------------------------------------------------- popularity


def build_popularity(spec: StackSpec) -> TopicPopularity:
    """Topic popularity for a spec (hierarchical for the dam system)."""
    workload = spec.workload
    if spec.system.kind == "dam":
        roots = max(2, workload.topics // 4)
        children = max(2, workload.topics // roots)
        return TopicPopularity.hierarchy(roots, children, exponent=workload.topic_exponent)
    if workload.topic_exponent <= 0:
        return TopicPopularity.uniform(workload.topics)
    return TopicPopularity.zipf(workload.topics, exponent=workload.topic_exponent)


# ------------------------------------------------------------------ systems


def _gossip_system(ctx: BuildContext, node_class=None, system_class=None, **params):
    """Build a gossip-family system: the one call the four kinds share.

    ``params`` are the node parameters beyond Figure 4's three and the
    event buffer's two; ``node_class=None`` leaves the choice to
    ``system_class`` (``None``: :class:`~repro.gossip.system.GossipSystem`).
    """
    system = ctx.spec.system
    node_kwargs: Dict[str, object] = {
        "fanout": system.fanout,
        "gossip_size": system.gossip_size,
        "round_period": system.round_period,
        "buffer_capacity": system.buffer_capacity,
        "selection_strategy": system.selection_strategy,
        "telemetry": ctx.telemetry,
        **params,
    }
    class_kwargs = {} if node_class is None else {"node_class": node_class}
    if system_class is None:
        from ..gossip.system import GossipSystem

        system_class = GossipSystem
    return system_class(
        ctx.scheduler,
        ctx.network,
        list(ctx.node_ids),
        membership_provider=ctx.membership_provider(),
        node_kwargs=node_kwargs,
        **class_kwargs,
    )


def _build_push_gossip(ctx: BuildContext) -> GossipSystem:
    return _gossip_system(ctx)


def _build_fair_gossip(ctx: BuildContext) -> FairGossipSystem:
    from ..core.fair_gossip import FairGossipSystem

    system = ctx.spec.system
    return _gossip_system(
        ctx,
        system_class=FairGossipSystem,
        min_fanout=system.min_fanout,
        max_fanout=system.max_fanout,
        min_payload=system.min_payload,
        max_payload=system.max_payload,
        policy=ctx.policy(),
        adapt_fanout=system.adapt_fanout,
        adapt_payload=system.adapt_payload,
    )


def _build_pushpull_gossip(ctx: BuildContext) -> GossipSystem:
    from ..gossip.pushpull import PushPullGossipNode

    return _gossip_system(ctx, PushPullGossipNode)


def _build_lazy_push(ctx: BuildContext) -> GossipSystem:
    from ..gossip.lazy import LazyPushGossipNode, lazy_store_ids

    alpha = float(ctx.spec.system.alpha)
    return _gossip_system(
        ctx,
        LazyPushGossipNode,
        alpha=alpha,
        store_ids=tuple(sorted(lazy_store_ids(ctx.node_ids, alpha))),
        population=len(ctx.node_ids),
    )


def _build_scribe(ctx: BuildContext) -> ScribeSystem:
    from ..dht.scribe import ScribeSystem

    return ScribeSystem(ctx.scheduler, ctx.network, list(ctx.node_ids))


def _build_splitstream(ctx: BuildContext) -> SplitStreamSystem:
    from ..dht.splitstream import SplitStreamSystem

    return SplitStreamSystem(
        ctx.scheduler, ctx.network, list(ctx.node_ids), stripes=ctx.spec.system.stripes
    )


def _build_dks(ctx: BuildContext) -> DksSystem:
    from ..dht.dks import DksSystem

    return DksSystem(ctx.scheduler, ctx.network, list(ctx.node_ids))


def _build_brokers(ctx: BuildContext) -> BrokerSystem:
    from ..brokers.broker import BrokerSystem

    return BrokerSystem(
        ctx.scheduler,
        ctx.network,
        list(ctx.node_ids),
        broker_count=ctx.spec.system.broker_count,
    )


def _build_dam(ctx: BuildContext) -> DataAwareMulticastSystem:
    from ..damulticast.dam import DataAwareMulticastSystem
    from ..pubsub.topics import TopicHierarchy

    hierarchy = TopicHierarchy(
        ctx.popularity.topics if ctx.popularity is not None else ()
    )
    return DataAwareMulticastSystem(
        ctx.scheduler,
        ctx.network,
        list(ctx.node_ids),
        hierarchy=hierarchy,
        fanout=ctx.spec.system.fanout,
        delegates_per_root=ctx.spec.system.delegates_per_root,
    )


_GOSSIP_PARAMS = (
    Param("fanout", "peers contacted per round (Figure 4's F)"),
    Param("gossip_size", "events per gossip message (Figure 4's N)"),
    Param("round_period", "gossip round length in time units"),
    Param("buffer_capacity", "events each node's buffer holds"),
    Param("selection_strategy", "which buffered events a round forwards first"),
)

SYSTEMS.register(
    "gossip",
    _build_push_gossip,
    description="Classic push gossip (Figure 4) over a pluggable membership view",
    params=_GOSSIP_PARAMS,
)
SYSTEMS.register(
    "fair-gossip",
    _build_fair_gossip,
    description="Push gossip with benefit-driven adaptive fanout/payload (§5.2)",
    params=_GOSSIP_PARAMS
    + (
        Param("adapt_fanout", "enable the fanout lever"),
        Param("adapt_payload", "enable the payload lever"),
        Param("min_fanout", "fanout floor (keeps the overlay connected)"),
        Param("max_fanout", "fanout ceiling"),
        Param("min_payload", "payload floor"),
        Param("max_payload", "payload ceiling"),
    ),
)
SYSTEMS.register(
    "pushpull-gossip",
    _build_pushpull_gossip,
    description="Digest/pull gossip variant trading latency for bandwidth",
    params=_GOSSIP_PARAMS,
)
SYSTEMS.register(
    "lazy-push",
    _build_lazy_push,
    description="Two-phase lazy probabilistic broadcast: eager push, then digest-driven pull recovery from an ALPHA-fraction store set",
    params=_GOSSIP_PARAMS
    + (Param("alpha", "fraction of nodes storing payloads for recovery"),),
)
SYSTEMS.register(
    "scribe",
    _build_scribe,
    description="Scribe-style per-topic multicast trees over a Pastry router (§3.1)",
)
SYSTEMS.register(
    "splitstream",
    _build_splitstream,
    description="SplitStream striping over Scribe trees (load balance, §3.1)",
    params=(Param("stripes", "stripe trees per topic"),),
)
SYSTEMS.register(
    "dks",
    _build_dks,
    description="DKS-style rendezvous grouping on a DHT (§3.2)",
)
SYSTEMS.register(
    "brokers",
    _build_brokers,
    description="Dedicated broker overlay (centralised baseline, §3.3)",
    params=(Param("broker_count", "number of broker nodes"),),
)
SYSTEMS.register(
    "dam",
    _build_dam,
    description="Data-aware multicast: topic-hierarchy groups with delegates (§3.4)",
    params=(
        Param("fanout", "in-group gossip fanout"),
        Param("delegates_per_root", "delegates recruited per root topic"),
    ),
)


# --------------------------------------------------------------- membership

def _build_cyclon(ctx: BuildContext):
    from ..membership.cyclon import cyclon_provider

    return cyclon_provider()


def _build_full(ctx: BuildContext):
    from ..membership.full import full_membership_provider

    return full_membership_provider(ctx.network)


def _build_lpbcast(ctx: BuildContext):
    from ..membership.lpbcast import lpbcast_provider

    return lpbcast_provider()


MEMBERSHIP.register(
    "cyclon",
    _build_cyclon,
    description="CYCLON view shuffling (partial views, age-based eviction)",
)
MEMBERSHIP.register(
    "full",
    _build_full,
    description="Full-membership oracle (isolates dissemination from membership noise)",
)
MEMBERSHIP.register(
    "lpbcast",
    _build_lpbcast,
    description="lpbcast-style piggybacked membership digests",
)


# ----------------------------------------------------------------- interest

INTEREST.register(
    "uniform",
    lambda spec, popularity: UniformInterest(
        popularity, topics_per_node=spec.interest.topics_per_node
    ),
    description="Every node subscribes to a fixed number of uniformly drawn topics",
    params=(Param("topics_per_node", "subscriptions per node"),),
)
INTEREST.register(
    "zipf",
    lambda spec, popularity: ZipfInterest(
        popularity, min_topics=1, max_topics=spec.interest.max_topics_per_node
    ),
    description="Skewed interest: popular topics attract most subscriptions",
    params=(Param("max_topics_per_node", "upper bound on subscriptions per node"),),
)
INTEREST.register(
    "community",
    lambda spec, popularity: CommunityInterest(
        popularity, topics_per_node=spec.interest.topics_per_node
    ),
    description="Clustered interest: communities of nodes share topic sets",
    params=(Param("topics_per_node", "subscriptions per node"),),
)
INTEREST.register(
    "content",
    lambda spec, popularity: AttributeInterest(
        filters_per_node=spec.interest.topics_per_node
    ),
    description="Content-based attribute filters instead of topics",
    params=(Param("topics_per_node", "filters per node"),),
)


def build_interest_model(spec: StackSpec, popularity: TopicPopularity):
    """Interest model for a spec (registry-backed)."""
    return INTEREST.get(spec.interest.kind).factory(spec, popularity)


# ---------------------------------------------------------------- workloads


def _build_topic_workload(system, scheduler, spec, popularity, publishers, interest_model):
    return TopicPublicationWorkload(
        system,
        scheduler,
        popularity,
        publishers,
        rate=spec.workload.publication_rate,
        event_size=spec.workload.event_size,
    )


def _build_content_workload(system, scheduler, spec, popularity, publishers, interest_model):
    return ContentPublicationWorkload(
        system,
        scheduler,
        interest_model,
        publishers,
        rate=spec.workload.publication_rate,
    )


WORKLOADS.register(
    "topics",
    _build_topic_workload,
    description="Topic events drawn from the popularity distribution",
    params=(
        Param("topics", "topic universe size"),
        Param("topic_exponent", "Zipf popularity exponent (0 = uniform)"),
        Param("publication_rate", "events per time unit"),
        Param("publisher_fraction", "fraction of nodes that publish"),
        Param("event_size", "abstract size units per event"),
        Param("subscription_churn_rate", "subscribe/unsubscribe ops per time unit"),
    ),
)
WORKLOADS.register(
    "content",
    _build_content_workload,
    description="Attribute events matched against content-based filters",
    params=(
        Param("publication_rate", "events per time unit"),
        Param("publisher_fraction", "fraction of nodes that publish"),
    ),
)


def workload_kind(spec: StackSpec) -> str:
    """Which workload component a spec uses (content-based when interest is)."""
    return "content" if spec.interest.kind == "content" else "topics"


def build_workload(spec: StackSpec, system, scheduler, popularity, publishers, interest_model):
    """Publication workload for a spec (see :func:`workload_kind`)."""
    return WORKLOADS.get(workload_kind(spec)).factory(
        system, scheduler, spec, popularity, publishers, interest_model
    )


# ----------------------------------------------------------------- policies

POLICIES.register(
    "expressive",
    lambda spec: EXPRESSIVE_POLICY,
    description="Figure 3 weights: filter expressiveness scales the benefit term",
)
POLICIES.register(
    "topic",
    lambda spec: TOPIC_BASED_POLICY,
    description="Figure 2 weights: plain topic-count benefit",
)


def resolve_policy_kind(kind: str) -> FairnessPolicy:
    """The fairness policy registered under ``kind``."""
    return POLICIES.get(kind).factory(None)


# -------------------------------------------------------------- build_stack

#: The gossip family: the kinds built by :func:`_gossip_system`.  They are
#: what a multi-domain topology can constrain (their nodes sample partners
#: through a membership provider the topology layer can scope; tree/DHT/broker
#: baselines route by identifier, so a domain map would silently mean nothing
#: there — reject instead).
GOSSIP_KINDS = frozenset({"gossip", "fair-gossip", "pushpull-gossip", "lazy-push"})


def check_kinds(spec: StackSpec) -> None:
    """Refuse the kind combinations no build accepts; raises :class:`RegistryError`.

    A topology needs a gossip-family system, and the buffer's selection
    strategy must be one the buffer knows.  ``StackSpec.validate()`` and
    :func:`build_stack` both call this.
    """
    from ..gossip.buffers import SELECTION_STRATEGIES

    strategy = spec.system.selection_strategy
    if strategy not in SELECTION_STRATEGIES:
        raise RegistryError(
            f"unknown system.selection_strategy {strategy!r}"
            f"{suggest(strategy, SELECTION_STRATEGIES)}; expected one of "
            f"{', '.join(SELECTION_STRATEGIES)}"
        )
    kind = spec.system.kind
    if spec.topology.enabled and kind not in GOSSIP_KINDS:
        raise RegistryError(
            f"topology requires a gossip-family system, got system.kind {kind!r}"
            f"{suggest(kind, GOSSIP_KINDS)}; topology-capable "
            f"kinds: {', '.join(sorted(GOSSIP_KINDS))}"
        )


def build_stack(
    spec: StackSpec,
    scheduler,
    network,
    popularity: Optional[TopicPopularity] = None,
    telemetry=None,
):
    """Build the dissemination system described by ``spec.system``.

    Works against either scheduling substrate (simulator or live runtime),
    with no switch between them: one spec builds the same nodes on both.
    ``telemetry`` hands the caller's shared store to node-level instruments.
    Unknown kinds raise :class:`~repro.registry.base.RegistryError` listing
    the registered systems.

    When ``spec.topology`` is enabled the returned system additionally
    carries a ``topology`` attribute (a
    :class:`~repro.topology.runtime.TopologyRuntime`): membership views are
    scoped to intra-domain peers, the geo latency/loss matrix is installed
    on the network as a per-link profile, and bridge relays federate topic
    events across domain boundaries.
    """
    check_kinds(spec)
    context = BuildContext(
        spec=spec,
        scheduler=scheduler,
        network=network,
        node_ids=list(spec.node_ids()),
        popularity=popularity,
        telemetry=telemetry,
    )
    if spec.topology.enabled:
        from ..topology.domains import compile_domain_map
        from ..topology.spec import TopologyError

        try:
            context.domain_map = compile_domain_map(spec.topology, context.node_ids)
        except TopologyError as error:
            raise RegistryError(f"invalid topology: {error}")
    system = SYSTEMS.get(spec.system.kind).factory(context)
    if context.domain_map is not None:
        from ..topology.bridge import BridgeRouter
        from ..topology.geo import GeoLinkProfile
        from ..topology.runtime import TopologyRuntime

        # The geo stream is named and dedicated, so installing a lossless
        # profile draws nothing and perturbs no other stream.
        geo = GeoLinkProfile(
            context.domain_map, rng=scheduler.rng.stream("topology-geo")
        )
        network.set_link_profile(geo)
        router = BridgeRouter(
            network, context.domain_map, system.nodes, telemetry=telemetry
        )
        system.topology = TopologyRuntime(context.domain_map, router, geo)
    return system
