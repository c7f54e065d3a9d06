"""Declarative experiment configuration.

Every benchmark and example describes its scenario with an
:class:`ExperimentConfig`: how many nodes, which dissemination system, which
interest and publication workload, how long to run, what to inject.  The
runner (:mod:`repro.experiments.runner`) turns a config into a finished
:class:`~repro.experiments.runner.ExperimentResult`, so the per-figure
benchmark files stay short and the parameters stay visible in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Mapping, Tuple

from ..jsonio import jsonify as _deep_jsonify, tuplify as _deep_tuplify

__all__ = ["ExperimentConfig"]

#: Encoding-only entries of two deleted fields (see :meth:`ExperimentConfig.to_dict`).
_LEGACY_ENTRIES: Dict[str, object] = {"extra": [], "selfish_fraction": 0.0}


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one simulated experiment.

    Attributes
    ----------
    name:
        Identifier used in tables (e.g. ``"fig1/fair-gossip"``).
    system:
        Which dissemination system to build; one of the names accepted by
        :func:`repro.experiments.scenarios.build_system` (``"gossip"``,
        ``"fair-gossip"``, ``"pushpull-gossip"``, ``"scribe"``,
        ``"splitstream"``, ``"dks"``, ``"brokers"``, ``"dam"``).
    nodes:
        Number of participants.
    seed:
        Master seed; two runs with equal configs produce identical results.
    topics / topic_exponent:
        Topic count and Zipf popularity exponent (0 = uniform).
    interest_model:
        ``"uniform"``, ``"zipf"``, ``"community"``, or ``"content"``.
    topics_per_node / max_topics_per_node:
        Interest sizing (meaning depends on the interest model).
    publication_rate:
        Events per time unit, published by ``publisher_fraction`` of nodes.
    duration:
        Length of the publication phase in time units; the run continues for
        ``drain_time`` more units so in-flight events settle.
    fanout / gossip_size / round_period:
        Gossip parameters (Figure 4's ``F``, ``N``, and the round length).
    alpha:
        Store fraction of the lazy-push system (the ALPHA of Algorithm
        3.10): the share of nodes that retain event payloads for pull
        recovery.  Ignored by every other system.
    membership:
        ``"cyclon"``, ``"full"``, or ``"lpbcast"`` (gossip systems only).
    loss_rate:
        Bernoulli message loss probability.
    churn_down_probability / churn_up_probability:
        Per-round node churn probabilities (0 disables node churn).
    subscription_churn_rate:
        Subscribe/unsubscribe operations per time unit (0 disables).
    fault_churn_start / fault_churn_stop / fault_churn_period:
        Window and tick period of the node-churn fault entry (0 period
        means one gossip round; 0 stop means run end).
    fault_partition_at / fault_partition_heal_after / fault_partition_fraction:
        One transient network partition (``heal_after`` of 0 disables it).
    fault_perturb_start / fault_perturb_stop / fault_perturb_latency /
    fault_perturb_loss:
        Link-degradation window: additive delivery latency and extra loss.
    fault_plan:
        Free-form :class:`~repro.faults.plan.FaultSpec` entries (tuples of
        ``(field, value)`` pairs) appended to the compiled fault plan —
        what ``--fault plan.json`` feeds.  All ``fault_*`` fields are
        omitted from :meth:`to_dict` at their defaults so fault-free
        configs keep their historical cache keys.
    topology_domains / topology_bridges_per_domain / topology_bridge_policy /
    topology_cross_latency / topology_cross_loss / topology_assignment /
    topology_geo:
        Multi-domain topology (see :mod:`repro.topology`): domain count or
        explicit assignment, bridge federation policy, and the geo
        latency/loss matrix.  Like ``fault_*``, all topology fields are
        omitted from :meth:`to_dict` at their defaults so topology-free
        configs keep their historical cache keys.
    broker_count / stripes / delegates_per_root:
        Baseline-specific knobs.
    fairness_policy:
        ``"expressive"`` (Figure 3 weights) or ``"topic"`` (Figure 2 weights).
    adapt_fanout / adapt_payload:
        Fair-gossip lever switches (for ablations).
    buffer_capacity / selection_strategy:
        The event buffer of every gossip-family node: how many events it
        holds and which it forwards first (``SELECTION_STRATEGIES``).
    """

    name: str = "experiment"
    system: str = "gossip"
    nodes: int = 128
    seed: int = 1
    topics: int = 16
    topic_exponent: float = 1.0
    interest_model: str = "zipf"
    topics_per_node: int = 2
    max_topics_per_node: int = 8
    publication_rate: float = 4.0
    publisher_fraction: float = 0.25
    duration: float = 40.0
    drain_time: float = 15.0
    fanout: int = 3
    gossip_size: int = 8
    round_period: float = 1.0
    alpha: float = 0.5
    membership: str = "cyclon"
    loss_rate: float = 0.0
    churn_down_probability: float = 0.0
    churn_up_probability: float = 0.5
    subscription_churn_rate: float = 0.0
    broker_count: int = 2
    stripes: int = 4
    delegates_per_root: int = 2
    fairness_policy: str = "expressive"
    adapt_fanout: bool = True
    adapt_payload: bool = True
    min_fanout: int = 1
    max_fanout: int = 12
    min_payload: int = 1
    max_payload: int = 32
    buffer_capacity: int = 500
    selection_strategy: str = "newest"
    event_size: int = 1
    fault_churn_start: float = 0.0
    fault_churn_stop: float = 0.0
    fault_churn_period: float = 0.0
    fault_partition_at: float = 0.0
    fault_partition_heal_after: float = 0.0
    fault_partition_fraction: float = 0.5
    fault_perturb_start: float = 0.0
    fault_perturb_stop: float = 0.0
    fault_perturb_latency: float = 0.0
    fault_perturb_loss: float = 0.0
    fault_plan: Tuple[Tuple[Tuple[str, object], ...], ...] = ()
    topology_domains: int = 0
    topology_bridges_per_domain: int = 1
    topology_bridge_policy: str = "sha256"
    topology_cross_latency: float = 0.0
    topology_cross_loss: float = 0.0
    topology_assignment: Tuple[Tuple[str, str], ...] = ()
    topology_geo: Tuple[Tuple[str, str, float, float], ...] = ()

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """Return a copy with some fields replaced (sweep helper)."""
        return replace(self, **overrides)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form; inverse of :meth:`from_dict`.

        The canonical JSON encoding of this dictionary is what the result
        cache hashes, so the mapping must stay deterministic: plain field
        values only, no derived data.

        ``fault_*`` fields at their defaults are omitted entirely: a
        fault-free config therefore encodes byte-for-byte as it did before
        fault injection existed, which is what keeps historical cache keys
        (and cached artifacts) valid.  That per-field history is why this
        codec is written out rather than left to the :mod:`repro.jsonio`
        walker the other specs use.
        """
        # Two deleted fields keep their one admissible value in every
        # encoding: each pinned cache key, result digest and artifact of
        # the earlier format holds them, so dropping them would move all.
        payload = {name: _deep_jsonify(value) for name, value in _LEGACY_ENTRIES.items()}
        for config_field in fields(self):
            value = getattr(self, config_field.name)
            if config_field.name in ("fault_plan", "topology_assignment", "topology_geo"):
                if not value:
                    continue
                value = _deep_jsonify(value)
            elif config_field.name.startswith(("fault_", "topology_")) or config_field.name in (
                "alpha",
                "buffer_capacity",
                "selection_strategy",
            ):
                # ``alpha`` (lazy-push store fraction) and the two buffer
                # fields follow the fault_* rule: omitted at their defaults
                # so configs that never touch them keep their historical
                # cache keys.
                if value == config_field.default:
                    continue
            payload[config_field.name] = value
        return payload

    @staticmethod
    def from_dict(payload: Mapping[str, object]) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys raise ``ValueError`` so stale cache artifacts written by
        an incompatible schema fail loudly instead of being misread; so does
        a legacy entry holding anything but the value :meth:`to_dict` writes.
        """
        values = dict(payload)
        for name, fixed in _LEGACY_ENTRIES.items():
            if name in values and values[name] == fixed:
                del values[name]
        known = {config_field.name for config_field in fields(ExperimentConfig)}
        unknown = set(values) - known
        if unknown:
            raise ValueError(f"unknown config fields {sorted(unknown)}")
        for structured in ("fault_plan", "topology_assignment", "topology_geo"):
            if structured in values:
                values[structured] = _deep_tuplify(values[structured])
        return ExperimentConfig(**values)

    def spec(self):
        """This config decomposed into a nested :class:`StackSpec`.

        The flat config remains the canonical cache identity;
        ``config.spec().to_config() == config`` holds for every config (the
        mapping is a field-for-field bijection, see
        :mod:`repro.registry.specs`).
        """
        from ..registry.specs import StackSpec

        return StackSpec.from_config(self)

    @property
    def total_time(self) -> float:
        """Publication phase plus drain time."""
        return self.duration + self.drain_time

    def node_ids(self) -> Tuple[str, ...]:
        """The participant names used by every scenario."""
        return tuple(f"node-{index:03d}" for index in range(self.nodes))

    def publisher_ids(self) -> Tuple[str, ...]:
        """The subset of nodes allowed to publish."""
        count = max(1, int(self.nodes * self.publisher_fraction))
        return self.node_ids()[:count]
