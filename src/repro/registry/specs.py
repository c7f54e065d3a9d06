"""Declarative stack specification: nested component specs.

A :class:`StackSpec` describes one complete protocol stack as five nested
component specs — :class:`SystemSpec`, :class:`MembershipSpec`,
:class:`InterestSpec`, :class:`WorkloadSpec`, :class:`PolicySpec` — plus the
run-level fields (name, nodes, seed, duration, drain, loss).  It is the one
construction vocabulary shared by the simulator
(:func:`repro.experiments.runner.run_experiment`) and the live runtime
(``python -m repro serve``): both worlds hand the same spec
to :func:`repro.registry.builtins.build_stack`.

Cache identity
--------------
The flat :class:`~repro.experiments.config.ExperimentConfig` remains the
*canonical cache identity*: :meth:`StackSpec.from_config` /
:meth:`StackSpec.to_config` are an exact field-for-field bijection (driven
by :data:`FLAT_TO_PATH`), so a spec round-trip never changes a cache key.
:meth:`StackSpec.to_dict` / :meth:`StackSpec.from_dict` are the nested JSON
codec, the dataclass walker of :mod:`repro.jsonio` (every section, the
topology included, is an ordinary nested dataclass to it); flat dicts
(cache artifacts) are read by ``ExperimentConfig.from_dict``.

Dotted paths
------------
Every field is addressable by a dotted path (``system.fanout``,
``membership.kind``, ``nodes``); ``--set``, ``--param`` and campaign
``set``/``sweep`` all speak it through :meth:`StackSpec.with_values` and
:func:`resolve_spec_path`.  A value must fit the type of the field it
lands on (:meth:`StackSpec.with_value`).

A numeric field declares its range once, in its annotation
(``nodes: Annotated[int, Bound(1)]``), which every decode and override
checks; :meth:`StackSpec.validate` is the one whole-spec check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Annotated, Dict, List, Mapping, Optional, Tuple

from ..faults.plan import FaultPlan, FaultPlanError, FaultSpec as _PlanFaultSpec
from ..jsonio import Bound, annotation_at, decode, encode, fit, refit, suggest
from ..telemetry import DEFAULT_SNAPSHOT_PERIOD, parse_sink_spec
from ..topology.spec import TopologyError, TopologySpec
from .base import RegistryError

__all__ = [
    "SystemSpec",
    "MembershipSpec",
    "InterestSpec",
    "WorkloadSpec",
    "PolicySpec",
    "TelemetrySpec",
    "FaultChurnSpec",
    "FaultPartitionSpec",
    "FaultPerturbSpec",
    "FaultsSpec",
    "TopologySpec",
    "StackSpec",
    "FLAT_TO_PATH",
    "PATH_TO_FLAT",
    "STRUCTURED_PATHS",
    "spec_paths",
    "resolve_spec_path",
    "parse_scalar",
    "parse_spec_overrides",
]


@dataclass(frozen=True)
class SystemSpec:
    """Which dissemination system to build, and its protocol parameters.

    Parameters irrelevant to the chosen ``kind`` are carried anyway (at
    their defaults) so the flat-config bijection stays exact; each
    component's registry entry documents the subset it actually reads.
    ``buffer_capacity`` and ``selection_strategy`` are the event buffer of
    every gossip-family node, on both engines.
    """

    kind: str = "gossip"
    fanout: Annotated[int, Bound(0)] = 3
    gossip_size: Annotated[int, Bound(1)] = 8
    round_period: Annotated[float, Bound(0, open_low=True)] = 1.0
    alpha: Annotated[float, Bound(0, 1, open_low=True)] = 0.5
    broker_count: Annotated[int, Bound(1)] = 2
    stripes: Annotated[int, Bound(1)] = 4
    delegates_per_root: Annotated[int, Bound(1)] = 2
    adapt_fanout: bool = True
    adapt_payload: bool = True
    min_fanout: int = 1
    max_fanout: int = 12
    min_payload: int = 1
    max_payload: int = 32
    buffer_capacity: Annotated[int, Bound(1)] = 500
    selection_strategy: str = "newest"


@dataclass(frozen=True)
class MembershipSpec:
    """Which peer-sampling service backs the gossip systems."""

    kind: str = "cyclon"


@dataclass(frozen=True)
class InterestSpec:
    """How subscriptions are assigned to nodes."""

    kind: str = "zipf"
    topics_per_node: Annotated[int, Bound(1)] = 2
    max_topics_per_node: Annotated[int, Bound(1)] = 8


@dataclass(frozen=True)
class WorkloadSpec:
    """Topic universe, publication traffic, and subscription churn."""

    topics: Annotated[int, Bound(1)] = 16
    topic_exponent: Annotated[float, Bound(0)] = 1.0
    publication_rate: Annotated[float, Bound(0, open_low=True)] = 4.0
    publisher_fraction: Annotated[float, Bound(0, 1, open_low=True)] = 0.25
    event_size: Annotated[int, Bound(0)] = 1
    subscription_churn_rate: Annotated[float, Bound(0)] = 0.0


@dataclass(frozen=True)
class PolicySpec:
    """Which fairness policy weights measurement (and the adaptive levers)."""

    kind: str = "expressive"


@dataclass(frozen=True)
class FaultChurnSpec:
    """Continuous node churn (the paper's §3.2 instability).

    ``period`` of 0 means "one gossip round" (``system.round_period``);
    ``start``/``stop`` bound the churn window, with 0 meaning run start /
    run end.  Publishers are protected automatically, as the legacy
    ``ChurnInjector`` wiring always did.
    """

    down_probability: Annotated[float, Bound(0, 1)] = 0.0
    up_probability: Annotated[float, Bound(0, 1)] = 0.5
    period: Annotated[float, Bound(0)] = 0.0
    start: Annotated[float, Bound(0)] = 0.0
    stop: Annotated[float, Bound(0)] = 0.0


@dataclass(frozen=True)
class FaultPartitionSpec:
    """One transient network partition; ``heal_after`` of 0 disables it."""

    at: Annotated[float, Bound(0)] = 0.0
    heal_after: Annotated[float, Bound(0)] = 0.0
    fraction: Annotated[float, Bound(0, 1, open_low=True, open_high=True)] = 0.5


@dataclass(frozen=True)
class FaultPerturbSpec:
    """Link-level degradation window: additive latency and extra loss."""

    start: Annotated[float, Bound(0)] = 0.0
    stop: Annotated[float, Bound(0)] = 0.0
    extra_latency: Annotated[float, Bound(0)] = 0.0
    loss_rate: Annotated[float, Bound(0, 1)] = 0.0


def _plan_pairs(raw, label: str):
    """Decode ``faults.plan``: every entry through the FaultSpec codec.

    Unknown fields fail here (not at run time) and the encoding is canonical
    — the same logical plan must always embed, and therefore cache-hash,
    identically.  Entries come either as pair lists (our own ``to_dict``
    output) or as plain mappings (the shape ``--fault plan.json`` files use).
    """
    try:
        return tuple(
            (
                _PlanFaultSpec.from_dict(entry)
                if isinstance(entry, Mapping)
                else _PlanFaultSpec.from_pairs(entry)
            ).to_pairs()
            for entry in fit(Tuple[object, ...], raw, label, RegistryError)
        )
    except FaultPlanError as error:
        raise RegistryError(f"invalid faults.plan entry: {error}") from None


@dataclass(frozen=True)
class FaultsSpec:
    """Declarative fault injection: the spec-side face of ``repro.faults``.

    The three fixed sub-specs cover the common shapes (churn, one
    partition, one perturbation window) with sweepable dotted paths
    (``faults.churn.down_probability`` ...); ``plan`` carries arbitrary
    additional :class:`~repro.faults.plan.FaultSpec` entries — crash/
    recover/leave schedules, extra partitions — encoded as tuples of
    ``(field, value)`` pairs (the same encoding the flat config's
    ``fault_plan`` field and ``--fault plan.json`` use).

    Faults are *physics*, not observability: unlike :class:`TelemetrySpec`
    every field here maps onto a flat :class:`ExperimentConfig` field and
    therefore feeds the result-cache identity.
    """

    churn: "FaultChurnSpec" = field(default_factory=FaultChurnSpec)
    partition: "FaultPartitionSpec" = field(default_factory=FaultPartitionSpec)
    perturb: "FaultPerturbSpec" = field(default_factory=FaultPerturbSpec)
    plan: Tuple[Tuple[Tuple[str, object], ...], ...] = field(
        default=(), metadata={"decode": _plan_pairs}
    )


@dataclass(frozen=True)
class TelemetrySpec:
    """Optional observability wiring: snapshot sinks and cadence.

    ``sinks`` are compact sink specs understood by
    :func:`repro.telemetry.parse_sink_spec` (``"jsonl:out/metrics.jsonl"``,
    ``"csv:..."``, ``"prom:..."``, ``"memory"``); ``period`` is the snapshot
    cadence in *time units* (simulated units under the discrete-event
    engine, scaled wall-clock units in the live runtime).

    Telemetry is observability, not physics: it is deliberately **not**
    part of the flat :class:`~repro.experiments.config.ExperimentConfig`
    and therefore never feeds the result cache key — attaching a sink to a
    run must not orphan its cached result.  The flip side: anything that
    routes through the flat config (``run_experiment``, sweeps, the cache)
    cannot carry this spec — simulator runs attach sinks explicitly via
    ``run_experiment(snapshot_sinks=...)`` or the CLI's ``--telemetry``;
    the spec-mode live host (``NodeHost(spec=...)``) is what honours it.
    Either way the sink specs reach
    :meth:`repro.telemetry.SnapshotScheduler.attach`, which parses them;
    :meth:`build_sinks` is the up-front validity check ``resolve_spec`` runs.
    """

    sinks: Tuple[str, ...] = ()
    period: Annotated[float, Bound(0, open_low=True)] = DEFAULT_SNAPSHOT_PERIOD

    def build_sinks(self):
        """Instantiate the configured sinks (empty list when unset)."""
        return [parse_sink_spec(spec) for spec in self.sinks]


#: Flat :class:`ExperimentConfig` field → dotted spec path.  This mapping is
#: the single source of truth for the flat/nested bijection; every config
#: field appears exactly once.
FLAT_TO_PATH: Dict[str, str] = {
    "name": "name",
    "nodes": "nodes",
    "seed": "seed",
    "duration": "duration",
    "drain_time": "drain_time",
    "loss_rate": "loss_rate",
    "system": "system.kind",
    "fanout": "system.fanout",
    "gossip_size": "system.gossip_size",
    "round_period": "system.round_period",
    "alpha": "system.alpha",
    "broker_count": "system.broker_count",
    "stripes": "system.stripes",
    "delegates_per_root": "system.delegates_per_root",
    "adapt_fanout": "system.adapt_fanout",
    "adapt_payload": "system.adapt_payload",
    "min_fanout": "system.min_fanout",
    "max_fanout": "system.max_fanout",
    "min_payload": "system.min_payload",
    "max_payload": "system.max_payload",
    "buffer_capacity": "system.buffer_capacity",
    "selection_strategy": "system.selection_strategy",
    "membership": "membership.kind",
    "interest_model": "interest.kind",
    "topics_per_node": "interest.topics_per_node",
    "max_topics_per_node": "interest.max_topics_per_node",
    "topics": "workload.topics",
    "topic_exponent": "workload.topic_exponent",
    "publication_rate": "workload.publication_rate",
    "publisher_fraction": "workload.publisher_fraction",
    "event_size": "workload.event_size",
    "subscription_churn_rate": "workload.subscription_churn_rate",
    "fairness_policy": "policy.kind",
    "churn_down_probability": "faults.churn.down_probability",
    "churn_up_probability": "faults.churn.up_probability",
    "fault_churn_period": "faults.churn.period",
    "fault_churn_start": "faults.churn.start",
    "fault_churn_stop": "faults.churn.stop",
    "fault_partition_at": "faults.partition.at",
    "fault_partition_heal_after": "faults.partition.heal_after",
    "fault_partition_fraction": "faults.partition.fraction",
    "fault_perturb_start": "faults.perturb.start",
    "fault_perturb_stop": "faults.perturb.stop",
    "fault_perturb_latency": "faults.perturb.extra_latency",
    "fault_perturb_loss": "faults.perturb.loss_rate",
    "fault_plan": "faults.plan",
    "topology_domains": "topology.domains",
    "topology_bridges_per_domain": "topology.bridges_per_domain",
    "topology_bridge_policy": "topology.bridge_policy",
    "topology_cross_latency": "topology.cross_latency",
    "topology_cross_loss": "topology.cross_loss",
    "topology_assignment": "topology.assignment",
    "topology_geo": "topology.geo",
}

#: Dotted spec path → flat config field (inverse of :data:`FLAT_TO_PATH`).
PATH_TO_FLAT: Dict[str, str] = {path: flat for flat, path in FLAT_TO_PATH.items()}

#: Structured (tuple-valued) paths: not settable from ``--set``, not
#: sweepable; each maps to the hint naming the option that does carry it.
_STRUCTURED_HINTS: Dict[str, str] = {
    "faults.plan": "; pass a plan file via --fault instead",
    "topology.assignment": "; pass a topology file via --topology instead",
    "topology.geo": "; pass a topology file via --topology instead",
}
STRUCTURED_PATHS: Tuple[str, ...] = tuple(_STRUCTURED_HINTS)

#: Sections and fields added after the PR-1/PR-3 artifacts were written:
#: omitted from :meth:`StackSpec.to_dict` at their defaults (the topology
#: section field by field), so dicts of specs that never touch them stay
#: byte-identical to the format of that era.
_OMITTED_AT_DEFAULT = frozenset(
    {
        "system.buffer_capacity",
        "system.selection_strategy",
        "faults",
        "faults.churn",
        "faults.partition",
        "faults.perturb",
        "faults.plan",
        "topology",
        "topology.*",
        "telemetry",
    }
)


def _construct(spec_class, values: Dict[str, object]):
    """Build a spec dataclass from nested, already-typed values (no checks).

    A nested section is declared ``field(default_factory=ItsClass)``, so the
    factory is the class to recurse into.
    """
    kwargs = dict(values)
    for spec_field in fields(spec_class):
        if isinstance(kwargs.get(spec_field.name), dict):
            kwargs[spec_field.name] = _construct(
                spec_field.default_factory, kwargs[spec_field.name]
            )
    return spec_class(**kwargs)


def _get_path(obj, parts: List[str]):
    """Walk ``parts`` through nested spec attributes."""
    for part in parts:
        obj = getattr(obj, part)
    return obj


def _replace_path(obj, parts: List[str], value):
    """Copy ``obj`` with the nested attribute at ``parts`` replaced."""
    if len(parts) == 1:
        return replace(obj, **{parts[0]: value})
    child = _replace_path(getattr(obj, parts[0]), parts[1:], value)
    return replace(obj, **{parts[0]: child})


def spec_paths() -> List[str]:
    """Every settable dotted path, in flat-field order."""
    return list(PATH_TO_FLAT)


def resolve_spec_path(key: str) -> str:
    """Check that ``key`` is a dotted spec path and return it.

    Unknown keys raise :class:`RegistryError` with a did-you-mean
    suggestion; a flat config field name is answered with its dotted path.
    """
    if key in PATH_TO_FLAT:
        return key
    if key in FLAT_TO_PATH:
        hint = f" — did you mean {FLAT_TO_PATH[key]!r}?"
    else:
        hint = suggest(key, PATH_TO_FLAT)
    raise RegistryError(
        f"unknown config key {key!r}{hint}; known paths: {', '.join(spec_paths())}"
    )


def parse_scalar(text: str):
    """Parse a CLI value: int, then float, then bool, falling back to str."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    return text


def parse_spec_overrides(pairs) -> Dict[str, object]:
    """Turn ``path=value`` strings into a dotted-path override mapping.

    Unknown keys raise :class:`RegistryError` with a did-you-mean
    suggestion.  Structured fields (:data:`STRUCTURED_PATHS`) cannot be set
    this way.
    """
    overrides: Dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise RegistryError(f"expected path=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        path = resolve_spec_path(key.strip())
        if path in _STRUCTURED_HINTS:
            raise RegistryError(
                f"config field {path!r} is structured and cannot be set from "
                f"the CLI{_STRUCTURED_HINTS[path]}"
            )
        overrides[path] = parse_scalar(raw.strip())
    return overrides


@dataclass(frozen=True)
class StackSpec:
    """A complete, declarative description of one protocol stack.

    The nested component specs say *what to build* (each ``kind`` is looked
    up in its registry); the run-level fields say how big, how long, and how
    reproducibly.
    """

    name: str = "experiment"
    nodes: Annotated[int, Bound(1)] = 128
    seed: int = 1
    duration: Annotated[float, Bound(0)] = 40.0
    drain_time: Annotated[float, Bound(0)] = 15.0
    loss_rate: Annotated[float, Bound(0, 1)] = 0.0
    system: SystemSpec = field(default_factory=SystemSpec)
    membership: MembershipSpec = field(default_factory=MembershipSpec)
    interest: InterestSpec = field(default_factory=InterestSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    #: Fault injection; part of the flat-config bijection (faults are
    #: physics and feed the result-cache identity, see :class:`FaultsSpec`).
    faults: FaultsSpec = field(default_factory=FaultsSpec)
    #: Multi-domain topology; physics, part of the flat-config bijection
    #: (omitted everywhere at its default so topology-free cache keys and
    #: nested encodings are byte-identical to the pre-topology format).
    topology: TopologySpec = field(default_factory=TopologySpec)
    #: Observability wiring; excluded from the flat-config bijection and
    #: therefore from the result-cache identity (see :class:`TelemetrySpec`).
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec)

    # ------------------------------------------------------------ flat adapter

    @staticmethod
    def from_config(config) -> "StackSpec":
        """Decompose a flat :class:`ExperimentConfig` into nested specs.

        One grouped pass constructing each (sub-)spec exactly once — this
        runs on every ``config.spec()`` call, so it avoids the per-field
        frozen-dataclass churn a ``with_value`` loop would cost.
        """
        nested: Dict[str, object] = {}
        for flat, path in FLAT_TO_PATH.items():
            node = nested
            *parents, leaf = path.split(".")
            for part in parents:
                node = node.setdefault(part, {})
            node[leaf] = getattr(config, flat)
        return _construct(StackSpec, nested)

    def to_config(self):
        """Recompose the flat :class:`ExperimentConfig` (exact inverse)."""
        from ..experiments.config import ExperimentConfig

        return ExperimentConfig(
            **{flat: self.get(path) for flat, path in FLAT_TO_PATH.items()}
        )

    # ------------------------------------------------------------ dict codecs

    def to_dict(self) -> Dict[str, object]:
        """Nested JSON-serializable form; inverse of :meth:`from_dict`.

        The faults, topology and telemetry sections (and the fault
        sub-sections) and the two buffer fields are omitted at their
        defaults.
        """
        return encode(self, sparse=_OMITTED_AT_DEFAULT)

    @staticmethod
    def from_dict(payload: Mapping[str, object]) -> "StackSpec":
        """Rebuild a spec from its nested dictionary form.

        Unknown keys raise :class:`RegistryError` with a did-you-mean
        suggestion and every value must fit its field's type.  Flat dicts
        (``ExperimentConfig.to_dict()`` output, as stored in cache
        artifacts) are read by ``ExperimentConfig.from_dict`` instead.
        """
        return decode(StackSpec, payload, RegistryError, "StackSpec")

    # ------------------------------------------------------------ validation

    def validate(self, live: bool = False) -> "StackSpec":
        """The one spec check every entry point runs; returns ``self``.

        Every field fits its annotation, bound included; the fault plan
        compiled from ``faults`` is valid (entries starting after
        :attr:`total_time` only for a simulator run — ``live`` runs have no
        end; nodes are not pinned, a plan may target infra nodes such as
        ``broker-0``); the domain map compiles; the system and topology kinds
        fit together and the selection strategy is known
        (:func:`~repro.registry.builtins.check_kinds`).
        Raises :class:`RegistryError`.
        """
        from ..topology.domains import compile_domain_map
        from .builtins import check_kinds

        refit(self, RegistryError)
        check_kinds(self)
        try:
            FaultPlan.from_spec(self).validate(total_time=None if live else self.total_time)
            if self.topology.enabled:
                compile_domain_map(self.topology, self.node_ids())
        except (FaultPlanError, TopologyError) as error:
            raise RegistryError(str(error)) from None
        return self

    # --------------------------------------------------------- dotted access

    def get(self, path: str):
        """Value at a dotted path of any depth (``"faults.churn.start"``)."""
        return _get_path(self, resolve_spec_path(path).split("."))

    def with_value(self, path: str, value) -> "StackSpec":
        """Copy with one dotted path replaced by a value of the field's type.

        An ``int`` assigned to a ``float``-typed field is widened so CLI
        overrides like ``--set duration=5`` hash identically to ``5.0``, an
        integral ``float`` (``--set system.fanout=2.0``) narrows to an
        ``int`` field; a value that does not fit the field's annotation, its
        bound included (see :func:`repro.jsonio.fit`), raises
        :class:`RegistryError`.
        """
        path = resolve_spec_path(path)
        annotation = annotation_at(StackSpec, path)
        base = getattr(annotation, "__origin__", annotation)  # int under Annotated[int, ...]
        if base is int and type(value) is float and value.is_integer():
            value = int(value)
        value = fit(annotation, value, path, RegistryError, path)
        return _replace_path(self, path.split("."), value)

    def with_values(self, overrides: Mapping[str, object]) -> "StackSpec":
        """Copy with several dotted-path overrides applied."""
        spec = self
        for path, value in overrides.items():
            spec = spec.with_value(path, value)
        return spec

    # ------------------------------------------------------------ conveniences

    def with_telemetry(self, sinks, period: Optional[float] = None) -> "StackSpec":
        """Copy with telemetry sinks (and optionally the snapshot period) set."""
        period = self.telemetry.period if period is None else float(period)
        return replace(self, telemetry=TelemetrySpec(tuple(sinks), period))

    @property
    def total_time(self) -> float:
        """Publication phase plus drain time."""
        return self.duration + self.drain_time

    def node_ids(self) -> Tuple[str, ...]:
        """The participant names used by every scenario."""
        return tuple(f"node-{index:03d}" for index in range(self.nodes))

    def publisher_ids(self) -> Tuple[str, ...]:
        """The subset of nodes allowed to publish."""
        count = max(1, int(self.nodes * self.workload.publisher_fraction))
        return self.node_ids()[:count]

    def describe(self) -> str:
        """Readable ``section.field = value`` listing of the resolved spec."""
        lines = [
            f"{path} = {self.get(path)!r}" for path in spec_paths() if path not in STRUCTURED_PATHS
        ]
        for path in STRUCTURED_PATHS:
            count = len(self.get(path))
            if count:
                lines.append(f"{path} = {count} entr{'y' if count == 1 else 'ies'}")
        return "\n".join(lines)
