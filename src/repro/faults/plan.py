"""Declarative fault plans: the vocabulary of instability.

The paper's experiments are defined by their *failure pattern* as much as by
their workload (§3.2, §5): churning participants, abrupt crashes, transient
partitions, and degraded links all impose maintenance cost that a fair
dissemination system must share.  A :class:`FaultPlan` captures one such
pattern declaratively — a tuple of composable :class:`FaultSpec` entries,
each with a start/stop window and a named RNG stream — so the *same* plan
JSON drives the discrete-event simulator and the live asyncio runtime (the
:class:`~repro.faults.controller.FaultController` does the driving).

Entry kinds
-----------
``crash`` / ``recover`` / ``leave``
    One-shot schedules: at time ``at``, apply the action to every node in
    ``nodes``.
``churn``
    Continuous random churn: every ``period`` units within ``[at, until]``,
    each alive node crashes with ``down_probability`` and each crashed node
    recovers with ``up_probability``; ``protected`` nodes never churn.
``partition``
    Transient split: at ``at`` install a partition (explicit ``groups``, a
    ``fraction`` split over the sorted node universe, or named topology
    ``domains`` when the run has a :mod:`repro.topology` domain map), heal
    ``heal_after`` units later.
``perturb``
    Link-level degradation within ``[at, until]``: add ``extra_latency`` to
    every delivery and drop each message with ``loss_rate``.

Determinism contract
--------------------
Every stochastic entry draws from a *named* stream of the engine's
:class:`~repro.sim.rng.RngRegistry` (``rng_stream``, defaulting to a name
derived from the entry's kind and position), never from the streams protocol
code uses — so adding a fault entry perturbs only its own draws, and two
serial runs of the same plan produce byte-identical traces.  An empty plan
schedules nothing and draws nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..jsonio import ALL_FIELDS, decode, encode, load_json, reject_unknown, suggest

__all__ = [
    "FAULT_KINDS",
    "PLAN_SCHEMA",
    "FaultPlanError",
    "FaultSpec",
    "FaultPlan",
]

#: Recognised entry kinds, in documentation order.
FAULT_KINDS = ("crash", "recover", "leave", "churn", "partition", "perturb")

#: Entry kinds that act on individual processes (need a process registry).
_NODE_KINDS = ("crash", "recover", "leave", "churn")

#: The FaultSpec fields each kind actually reads (beyond ``kind`` itself).
#: ``validate`` rejects entries setting anything else — a field the
#: controller ignores would otherwise let a plan silently mean less than
#: its author wrote (e.g. ``nodes`` on a ``perturb`` entry).
_KIND_FIELDS = {
    "crash": {"at", "nodes"},
    "recover": {"at", "nodes"},
    "leave": {"at", "nodes"},
    "churn": {
        "at",
        "until",
        "period",
        "down_probability",
        "up_probability",
        "protected",
        "rng_stream",
    },
    "partition": {"at", "heal_after", "fraction", "groups", "domains"},
    "perturb": {"at", "until", "extra_latency", "loss_rate", "rng_stream"},
}

#: Schema tag written into fault-plan JSON files.
PLAN_SCHEMA = "fault-plan/v1"


class FaultPlanError(ValueError):
    """An invalid or unsatisfiable fault plan (registry-style message)."""


@dataclass(frozen=True)
class FaultSpec:
    """One composable fault entry.

    Fields irrelevant to the chosen ``kind`` are carried at their defaults
    (the same convention as the component specs in
    :mod:`repro.registry.specs`), which keeps the JSON codec and the
    flat-config embedding trivial; :meth:`FaultPlan.validate` enforces the
    per-kind subset (:data:`_KIND_FIELDS`): an entry setting a field its
    kind does not read is rejected rather than silently meaning less than
    its author wrote.
    """

    kind: str = "crash"
    #: Window start in time units (one-shot kinds fire exactly here).
    at: float = 0.0
    #: Window end; ``0.0`` means "until the run ends / controller stops".
    until: float = 0.0
    #: Target nodes for ``crash`` / ``recover`` / ``leave``.
    nodes: Tuple[str, ...] = ()
    #: Churn tick period in time units.
    period: float = 1.0
    down_probability: float = 0.0
    up_probability: float = 0.5
    #: Nodes the churn entry never touches (publishers, anchors).
    protected: Tuple[str, ...] = ()
    #: Partition heal delay after ``at``.
    heal_after: float = 0.0
    #: Partition split: first ``fraction`` of the sorted node universe.
    fraction: float = 0.5
    #: Explicit partition assignment ``((node_id, group), ...)``; overrides
    #: ``fraction`` when non-empty.
    groups: Tuple[Tuple[str, int], ...] = ()
    #: Topology-domain partition: isolate the named domains of the run's
    #: :class:`~repro.topology.domains.DomainMap` from everything else.
    #: Resolved to a group map at install time by the controller; requires a
    #: topology and is mutually exclusive with ``groups``/``fraction``.
    domains: Tuple[str, ...] = ()
    #: Additive per-message delivery latency while the perturbation is live.
    extra_latency: float = 0.0
    #: Additional Bernoulli loss while the perturbation is live.
    loss_rate: float = 0.0
    #: Named RNG stream; empty picks ``fault-<index>-<kind>`` (the config
    #: compiler pins ``"churn"`` for flat-config churn, matching the legacy
    #: ``ChurnInjector`` byte for byte).
    rng_stream: str = ""

    # ------------------------------------------------------------- codecs

    def to_dict(self) -> Dict[str, object]:
        """Compact JSON form: ``kind`` plus every non-default field."""
        return {"kind": self.kind, **encode(self, sparse=ALL_FIELDS)}

    @staticmethod
    def from_dict(payload: Mapping[str, object]) -> "FaultSpec":
        """Rebuild an entry; unknown or mistyped fields raise :class:`FaultPlanError`.

        Integers are canonicalised into float-typed fields, so the same plan
        always embeds (and hashes) identically.
        """
        return decode(FaultSpec, payload, FaultPlanError, "fault entry")

    def to_pairs(self) -> Tuple[Tuple[str, object], ...]:
        """Deterministic tuple-of-pairs encoding (flat-config embedding).

        Field order follows the dataclass, so two equal specs always encode
        identically — the property the result-cache key relies on.  Kept
        beside the :mod:`repro.jsonio` walker on purpose: the pair tuples
        are the cache identity, and callers build them by hand.
        """
        pairs: List[Tuple[str, object]] = []
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name == "kind" or value != spec_field.default:
                pairs.append((spec_field.name, value))
        return tuple(pairs)

    @staticmethod
    def from_pairs(pairs: Sequence) -> "FaultSpec":
        """Inverse of :meth:`to_pairs` (also accepts the JSON list form)."""
        if not isinstance(pairs, (list, tuple)) or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2 and isinstance(pair[0], str)
            for pair in pairs
        ):
            raise FaultPlanError(
                "fault plan entry must be a sequence of (field, value) "
                f"pairs, got {pairs!r}"
            )
        return FaultSpec.from_dict(dict(pairs))


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, validated-on-demand sequence of fault entries."""

    entries: Tuple[FaultSpec, ...] = ()

    # ------------------------------------------------------------- queries

    def is_empty(self) -> bool:
        """Whether the plan schedules nothing at all."""
        return not self.entries

    def needs_registry(self) -> bool:
        """Whether any entry acts on processes (vs. the network only)."""
        return any(entry.kind in _NODE_KINDS for entry in self.entries)

    def needs_network(self) -> bool:
        """Whether any entry acts on the network fabric."""
        return any(entry.kind in ("partition", "perturb") for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------- codecs

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form; inverse of :meth:`from_dict`."""
        return {
            "schema": PLAN_SCHEMA,
            "faults": [entry.to_dict() for entry in self.entries],
        }

    @staticmethod
    def from_dict(payload) -> "FaultPlan":
        """Accepts ``{"faults": [...]}`` (schema optional) or a bare list."""
        if isinstance(payload, Mapping):
            schema = payload.get("schema", PLAN_SCHEMA)
            if schema != PLAN_SCHEMA:
                raise FaultPlanError(
                    f"unsupported fault plan schema {schema!r}; expected {PLAN_SCHEMA!r}"
                )
            reject_unknown(payload, ("schema", "faults"), FaultPlanError, "fault plan")
            entries = payload.get("faults", [])
        else:
            entries = payload
        if not isinstance(entries, (list, tuple)):
            raise FaultPlanError(
                f"fault plan entries must be a list, got {type(entries).__name__}"
            )
        return FaultPlan(tuple(FaultSpec.from_dict(entry) for entry in entries))

    def to_json(self) -> str:
        """Canonical JSON text of the plan."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_file(path: str) -> "FaultPlan":
        """Load a plan from a JSON file (``--fault plan.json``)."""
        return FaultPlan.from_dict(load_json(path, PLAN_SCHEMA, FaultPlanError, "fault plan"))

    def entry_pairs(self) -> Tuple[Tuple[Tuple[str, object], ...], ...]:
        """The plan as tuple-of-pairs entries (flat-config embedding)."""
        return tuple(entry.to_pairs() for entry in self.entries)

    # -------------------------------------------------------- flat adapter

    @staticmethod
    def from_flat(config) -> "FaultPlan":
        """Compile the fault-relevant fields of a flat config into a plan.

        ``config`` is duck-typed (an
        :class:`~repro.experiments.config.ExperimentConfig` or anything with
        the same attributes).  The churn entry reproduces the legacy
        ``ChurnInjector`` wiring exactly — same ``"churn"`` RNG stream, same
        period default (the gossip round), same protected publishers — so
        pre-existing churn configs keep their byte-identical traces.
        """
        entries: List[FaultSpec] = []
        if config.churn_down_probability > 0:
            entries.append(
                FaultSpec(
                    kind="churn",
                    at=config.fault_churn_start,
                    until=config.fault_churn_stop,
                    period=config.fault_churn_period or config.round_period,
                    down_probability=config.churn_down_probability,
                    up_probability=config.churn_up_probability,
                    protected=tuple(config.publisher_ids()),
                    rng_stream="churn",
                )
            )
        elif (
            config.fault_churn_start
            or config.fault_churn_stop
            or config.fault_churn_period
        ):
            # A tuned-but-disabled entry would silently measure a calmer
            # run than the config says (while still changing its cache
            # key); refuse instead.
            raise FaultPlanError(
                "fault_churn_start/stop/period are set but "
                "churn_down_probability is 0, so no churn would run; set "
                "faults.churn.down_probability too"
            )
        if config.fault_partition_heal_after > 0:
            entries.append(
                FaultSpec(
                    kind="partition",
                    at=config.fault_partition_at,
                    heal_after=config.fault_partition_heal_after,
                    fraction=config.fault_partition_fraction,
                )
            )
        elif config.fault_partition_at or config.fault_partition_fraction != 0.5:
            raise FaultPlanError(
                "fault_partition_at/fraction are set but "
                "fault_partition_heal_after is 0, so no partition would be "
                "installed; set faults.partition.heal_after too"
            )
        if config.fault_perturb_latency > 0 or config.fault_perturb_loss > 0:
            entries.append(
                FaultSpec(
                    kind="perturb",
                    at=config.fault_perturb_start,
                    until=config.fault_perturb_stop,
                    extra_latency=config.fault_perturb_latency,
                    loss_rate=config.fault_perturb_loss,
                    rng_stream="fault-perturb",
                )
            )
        elif config.fault_perturb_start or config.fault_perturb_stop:
            raise FaultPlanError(
                "fault_perturb_start/stop are set but both "
                "fault_perturb_latency and fault_perturb_loss are 0, so no "
                "perturbation would apply; set faults.perturb.extra_latency "
                "or faults.perturb.loss_rate too"
            )
        for pairs in config.fault_plan:
            entries.append(FaultSpec.from_pairs(pairs))
        return FaultPlan(tuple(entries))

    # ---------------------------------------------------------- validation

    def validate(
        self,
        node_ids: Optional[Sequence[str]] = None,
        total_time: Optional[float] = None,
    ) -> "FaultPlan":
        """Fail fast on an invalid or unsatisfiable plan.

        ``node_ids`` (when known) pins the node universe: entries naming
        unknown nodes are rejected here, at build time, instead of being
        skipped at fire time.  ``total_time`` (when known) rejects entries
        that cannot fire before the run ends.  Returns ``self`` so call
        sites can chain.  Raises :class:`FaultPlanError`.
        """
        universe = set(node_ids) if node_ids is not None else None
        for index, entry in enumerate(self.entries):
            where = f"fault entry #{index} ({entry.kind!r})"
            if entry.kind not in FAULT_KINDS:
                raise FaultPlanError(
                    f"{where}: unknown fault kind{suggest(entry.kind, FAULT_KINDS)}; "
                    f"known kinds: {', '.join(FAULT_KINDS)}"
                )
            read = _KIND_FIELDS[entry.kind]
            ignored = [
                spec_field.name
                for spec_field in fields(entry)
                if spec_field.name != "kind"
                and spec_field.name not in read
                and getattr(entry, spec_field.name) != spec_field.default
            ]
            if ignored:
                raise FaultPlanError(
                    f"{where}: field(s) {sorted(ignored)} are not read by kind "
                    f"{entry.kind!r}; it only reads: {', '.join(sorted(read))}"
                )
            if entry.at < 0:
                raise FaultPlanError(f"{where}: 'at' must be non-negative, got {entry.at}")
            if entry.until < 0 or (entry.until > 0 and entry.until < entry.at):
                raise FaultPlanError(
                    f"{where}: 'until' must be 0 (open-ended) or >= 'at', got {entry.until}"
                )
            if total_time is not None and entry.at > total_time:
                raise FaultPlanError(
                    f"{where}: starts at {entry.at} but the run ends at {total_time}; "
                    "the entry can never fire"
                )
            if entry.kind in ("crash", "recover", "leave"):
                if not entry.nodes:
                    raise FaultPlanError(f"{where}: 'nodes' must name at least one node")
                self._check_nodes(where, entry.nodes, universe)
            elif entry.kind == "churn":
                if entry.period <= 0:
                    raise FaultPlanError(f"{where}: 'period' must be positive, got {entry.period}")
                for name in ("down_probability", "up_probability"):
                    value = getattr(entry, name)
                    if not 0.0 <= value <= 1.0:
                        raise FaultPlanError(
                            f"{where}: {name!r} must be within [0, 1], got {value}"
                        )
                self._check_nodes(where, entry.protected, universe)
            elif entry.kind == "partition":
                if entry.heal_after <= 0:
                    raise FaultPlanError(
                        f"{where}: 'heal_after' must be positive, got {entry.heal_after}"
                    )
                if entry.domains:
                    # Domain names resolve against the run's topology at
                    # install time (the controller holds the DomainMap);
                    # here we only reject ambiguous combinations.
                    if entry.groups:
                        raise FaultPlanError(
                            f"{where}: 'domains' and 'groups' are mutually "
                            "exclusive; name domains or spell out groups, not both"
                        )
                elif entry.groups:
                    self._check_nodes(where, [node for node, _ in entry.groups], universe)
                elif not 0.0 < entry.fraction < 1.0:
                    raise FaultPlanError(
                        f"{where}: 'fraction' must be strictly between 0 and 1, "
                        f"got {entry.fraction}"
                    )
            elif entry.kind == "perturb":
                if entry.extra_latency < 0:
                    raise FaultPlanError(
                        f"{where}: 'extra_latency' must be non-negative, got {entry.extra_latency}"
                    )
                if not 0.0 <= entry.loss_rate <= 1.0:
                    raise FaultPlanError(
                        f"{where}: 'loss_rate' must be within [0, 1], got {entry.loss_rate}"
                    )
        # The network applies one partition map and one perturbation at a
        # time (install overwrites, lift/heal clears unconditionally), so
        # overlapping same-kind windows would silently measure the wrong
        # physics.  Reject them here instead.
        self._check_no_window_overlap(
            "partition",
            [
                (index, entry.at, entry.at + entry.heal_after)
                for index, entry in enumerate(self.entries)
                if entry.kind == "partition"
            ],
        )
        self._check_no_window_overlap(
            "perturb",
            [
                (index, entry.at, entry.until if entry.until > 0 else float("inf"))
                for index, entry in enumerate(self.entries)
                if entry.kind == "perturb"
            ],
        )
        return self

    @staticmethod
    def _check_no_window_overlap(kind: str, windows) -> None:
        ordered = sorted(windows, key=lambda window: (window[1], window[2]))
        for (index_a, _, end_a), (index_b, start_b, _) in zip(ordered, ordered[1:]):
            if start_b < end_a:
                raise FaultPlanError(
                    f"fault entries #{index_a} and #{index_b}: overlapping "
                    f"{kind} windows; the network applies one {kind} at a "
                    "time, so stagger the entries instead"
                )

    @staticmethod
    def _check_nodes(where: str, nodes, universe) -> None:
        if universe is None:
            return
        unknown = sorted(set(nodes) - universe)
        if unknown:
            raise FaultPlanError(
                f"{where}: unknown node ids {unknown}"
                f"{suggest(unknown[0], universe)}; the run has {len(universe)} nodes"
            )

    # ------------------------------------------------------------- helpers

    def describe(self) -> str:
        """Readable one-line-per-entry listing."""
        if not self.entries:
            return "(empty fault plan)"
        lines = []
        for index, entry in enumerate(self.entries):
            detail = ", ".join(
                f"{key}={value!r}" for key, value in entry.to_pairs() if key != "kind"
            )
            lines.append(f"#{index} {entry.kind}: {detail or '(defaults)'}")
        return "\n".join(lines)
