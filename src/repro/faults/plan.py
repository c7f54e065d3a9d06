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

from dataclasses import dataclass, fields
from typing import Annotated, List, Mapping, Optional, Sequence, Tuple

from ..jsonio import Bound, decode, load_json, refit, reject_unknown, suggest

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
    flat-config embedding trivial.  Each numeric field declares its bound
    in its annotation; :meth:`FaultPlan.validate` enforces those and the
    per-kind subset (:data:`_KIND_FIELDS`): an entry setting a field its
    kind does not read is rejected rather than silently meaning less than
    its author wrote.
    """

    kind: str = "crash"
    #: Window start in time units (one-shot kinds fire exactly here).
    at: Annotated[float, Bound(0)] = 0.0
    #: Window end; ``0.0`` means "until the run ends / controller stops".
    until: Annotated[float, Bound(0)] = 0.0
    #: Target nodes for ``crash`` / ``recover`` / ``leave``.
    nodes: Tuple[str, ...] = ()
    #: Churn tick period in time units.
    period: Annotated[float, Bound(0, open_low=True)] = 1.0
    down_probability: Annotated[float, Bound(0, 1)] = 0.0
    up_probability: Annotated[float, Bound(0, 1)] = 0.5
    #: Nodes the churn entry never touches (publishers, anchors).
    protected: Tuple[str, ...] = ()
    #: Partition heal delay after ``at``.
    heal_after: Annotated[float, Bound(0)] = 0.0
    #: Partition split: first ``fraction`` of the sorted node universe.
    fraction: Annotated[float, Bound(0, 1, open_low=True, open_high=True)] = 0.5
    #: Explicit partition assignment ``((node_id, group), ...)``; overrides
    #: ``fraction`` when non-empty.
    groups: Tuple[Tuple[str, int], ...] = ()
    #: Topology-domain partition: isolate the named domains of the run's
    #: :class:`~repro.topology.domains.DomainMap` from everything else.
    #: Resolved to a group map at install time by the controller; requires a
    #: topology and is mutually exclusive with ``groups``/``fraction``.
    domains: Tuple[str, ...] = ()
    #: Additive per-message delivery latency while the perturbation is live.
    extra_latency: Annotated[float, Bound(0)] = 0.0
    #: Additional Bernoulli loss while the perturbation is live.
    loss_rate: Annotated[float, Bound(0, 1)] = 0.0
    #: Named RNG stream; empty picks ``fault-<index>-<kind>``
    #: (:meth:`FaultPlan.from_spec` pins ``"churn"`` for the spec's churn
    #: section, so pinned churn runs reproduce byte for byte).
    rng_stream: str = ""

    # ------------------------------------------------------------- codecs

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

    # ------------------------------------------------------------- codecs

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

    @staticmethod
    def from_file(path: str) -> "FaultPlan":
        """Load a plan from a JSON file (``--fault plan.json``)."""
        return FaultPlan.from_dict(load_json(path, PLAN_SCHEMA, FaultPlanError, "fault plan"))

    def entry_pairs(self) -> Tuple[Tuple[Tuple[str, object], ...], ...]:
        """The plan as tuple-of-pairs entries (flat-config embedding)."""
        return tuple(entry.to_pairs() for entry in self.entries)

    # -------------------------------------------------------- spec adapter

    @staticmethod
    def from_spec(spec) -> "FaultPlan":
        """Compile the ``faults`` section of a :class:`~repro.registry.specs.StackSpec`.

        Each enabled fixed sub-spec becomes one entry, then the ``plan``
        entries follow.  The churn entry keeps the wiring pinned churn runs
        were drawn with (``"churn"`` RNG stream, one gossip round by
        default, publishers protected), byte for byte.
        """
        faults = spec.faults
        churn, partition, perturb = faults.churn, faults.partition, faults.perturb
        entries: List[FaultSpec] = []
        if churn.down_probability > 0:
            entries.append(
                FaultSpec(
                    kind="churn",
                    at=churn.start,
                    until=churn.stop,
                    period=churn.period or spec.system.round_period,
                    down_probability=churn.down_probability,
                    up_probability=churn.up_probability,
                    protected=tuple(spec.publisher_ids()),
                    rng_stream="churn",
                )
            )
        elif churn.start or churn.stop or churn.period:
            # A tuned-but-disabled entry would silently measure a calmer
            # run than the spec says (while still changing its cache key);
            # refuse instead.
            raise FaultPlanError(
                "faults.churn.start/stop/period are set but "
                "faults.churn.down_probability is 0, so no churn would run; "
                "set faults.churn.down_probability too"
            )
        if partition.heal_after > 0:
            entries.append(
                FaultSpec(
                    kind="partition",
                    at=partition.at,
                    heal_after=partition.heal_after,
                    fraction=partition.fraction,
                )
            )
        elif partition.at or partition.fraction != 0.5:
            raise FaultPlanError(
                "faults.partition.at/fraction are set but "
                "faults.partition.heal_after is 0, so no partition would be "
                "installed; set faults.partition.heal_after too"
            )
        if perturb.extra_latency > 0 or perturb.loss_rate > 0:
            entries.append(
                FaultSpec(
                    kind="perturb",
                    at=perturb.start,
                    until=perturb.stop,
                    extra_latency=perturb.extra_latency,
                    loss_rate=perturb.loss_rate,
                    rng_stream="fault-perturb",
                )
            )
        elif perturb.start or perturb.stop:
            raise FaultPlanError(
                "faults.perturb.start/stop are set but both "
                "faults.perturb.extra_latency and faults.perturb.loss_rate are 0, "
                "so no perturbation would apply; set one of them too"
            )
        for pairs in faults.plan:
            entries.append(FaultSpec.from_pairs(pairs))
        return FaultPlan(tuple(entries))

    # ---------------------------------------------------------- validation

    def validate(
        self,
        node_ids: Optional[Sequence[str]] = None,
        total_time: Optional[float] = None,
    ) -> "FaultPlan":
        """Fail fast on an invalid or unsatisfiable plan.

        Each entry's fields must lie within the bounds they declare
        (:func:`repro.jsonio.refit`); the other rules relate fields: what
        each kind reads, windows, targets, overlaps.  ``node_ids`` (when
        known) pins the node universe: entries naming unknown nodes are
        rejected here, at build time, instead of being skipped at fire time.
        ``total_time`` (when known) rejects entries that cannot fire before
        the run ends.  Returns ``self`` so call sites can chain.  Raises
        :class:`FaultPlanError`.
        """
        universe = set(node_ids) if node_ids is not None else None
        for index, entry in enumerate(self.entries):
            where = f"fault entry #{index} ({entry.kind!r})"
            if entry.kind not in FAULT_KINDS:
                raise FaultPlanError(
                    f"{where}: unknown fault kind{suggest(entry.kind, FAULT_KINDS)}; "
                    f"known kinds: {', '.join(FAULT_KINDS)}"
                )
            refit(entry, lambda message: FaultPlanError(f"{where}: {message}"))
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
            if entry.until > 0 and entry.until < entry.at:
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
