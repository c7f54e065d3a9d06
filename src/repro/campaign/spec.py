"""Declarative campaign specifications: targets, services, connectors.

A campaign is the "make paper" layer: it names every artifact the paper
needs (*targets* — rendered tables/reports plus their ``--json`` result
artifacts) and every batch of experiment runs those artifacts consume
(*services* — sweeps, comparisons, or single runs expressed as scenario +
``--set``-style overrides).  Targets reference services through small
connector trees:

``ALL``
    every child must complete; results concatenate in child order (the
    default — a bare name or list of names means ``ALL``).
``SEQ``
    like ``ALL``, but children execute strictly in list order (child *i+1*
    never starts before child *i* finished).
``ONE``
    alternatives, tried one at a time: first a child whose points were all
    cached when the run started, else the first in list order; if it
    fails, the next by the same rule.  The first to complete satisfies the
    connector and the rest never run, so a warm alternative
    short-circuits a cold one without running anything.

Arbitrary extra DAG edges come from each service's ``after`` list.  The
whole spec round-trips through JSON (:meth:`CampaignSpec.to_dict` /
:meth:`from_dict` / :meth:`from_file`), and validation fails fast with
:class:`CampaignError` — a :class:`~repro.registry.base.RegistryError`
subclass, so unknown names carry did-you-mean suggestions exactly like the
component registries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Set, Tuple, Union

from ..registry import STRUCTURED_PATHS, RegistryError, resolve_spec_path
from ..jsonio import fit, load_json, reject_unknown, suggest

__all__ = [
    "CAMPAIGN_SCHEMA",
    "CampaignError",
    "Connector",
    "ServiceSpec",
    "TargetSpec",
    "CampaignSpec",
]

#: Schema tag of the campaign JSON layout; bump on incompatible changes.
CAMPAIGN_SCHEMA = "campaign/v1"

#: Connector operators, in documentation order.
CONNECTOR_OPS = ("all", "seq", "one")

#: Target artifact kinds the renderer understands.
TARGET_KINDS = ("table", "report")


class CampaignError(RegistryError):
    """Invalid campaign spec: unknown names, dangling edges, cycles."""


@dataclass(frozen=True)
class Connector:
    """One node of a target's input tree: an operator over children.

    Children are service names (strings) or nested connectors.  The JSON
    form is ``{"all": [...]}`` / ``{"seq": [...]}`` / ``{"one": [...]}``;
    a bare string or list is shorthand for ``ALL``.
    """

    op: str
    children: Tuple[Union[str, "Connector"], ...]

    def service_names(self) -> List[str]:
        """Every service name mentioned anywhere in the tree (in order)."""
        names: List[str] = []
        for child in self.children:
            if isinstance(child, Connector):
                names.extend(child.service_names())
            else:
                names.append(child)
        return names

    def seq_edges(self) -> List[Tuple[str, str]]:
        """``(later, earlier)`` service pairs ``SEQ`` orders, inner trees first."""
        edges = [
            edge
            for child in self.children
            if isinstance(child, Connector)
            for edge in child.seq_edges()
        ]
        if self.op == "seq":
            for earlier, later in zip(self.children, self.children[1:]):
                edges.extend(
                    (after, before)
                    for before in services_of(earlier)
                    for after in services_of(later)
                )
        return edges

    def describe(self) -> str:
        """Compact one-line rendering, e.g. ``SEQ(a, ONE(b, c))``."""
        parts = [
            child.describe() if isinstance(child, Connector) else child
            for child in self.children
        ]
        return f"{self.op.upper()}({', '.join(parts)})"

    @staticmethod
    def parse(payload: object, context: str) -> "Connector":
        """Parse a connector tree from its JSON form (with shorthands)."""
        if isinstance(payload, str):
            return Connector("all", (payload,))
        if isinstance(payload, (list, tuple)):
            return Connector(
                "all", tuple(Connector._parse_child(child, context) for child in payload)
            )
        if isinstance(payload, Mapping):
            if len(payload) != 1:
                raise CampaignError(
                    f"{context}: a connector object needs exactly one of "
                    f"{'/'.join(CONNECTOR_OPS)}, got keys {sorted(payload)}"
                )
            ((op, children),) = payload.items()
            if op not in CONNECTOR_OPS:
                raise CampaignError(
                    f"{context}: unknown connector {op!r}"
                    f"{suggest(str(op), CONNECTOR_OPS)}; "
                    f"connectors: {', '.join(CONNECTOR_OPS)}"
                )
            if not isinstance(children, (list, tuple)) or not children:
                raise CampaignError(
                    f"{context}: connector {op!r} needs a non-empty list of children"
                )
            return Connector(
                op, tuple(Connector._parse_child(child, context) for child in children)
            )
        raise CampaignError(
            f"{context}: expected a service name, a list of names, or a "
            f"connector object, got {type(payload).__name__}"
        )

    @staticmethod
    def _parse_child(payload: object, context: str) -> Union[str, "Connector"]:
        if isinstance(payload, str):
            return payload
        return Connector.parse(payload, context)


def services_of(child: Union[str, Connector]) -> List[str]:
    """The services one connector child names (the child itself, for a service)."""
    return child.service_names() if isinstance(child, Connector) else [child]


@dataclass(frozen=True)
class ServiceSpec:
    """One batch of experiment runs: scenario + overrides + grid axes.

    Attributes
    ----------
    name:
        The service's name inside the campaign (manifest/graph key).
    scenario:
        Registered scenario the points start from (``list-scenarios``).
    set:
        Dotted spec-path overrides applied to the base config, exactly like
        the CLI's ``--set`` (``{"system.fanout": 5}``).
    compare:
        Optional list of dissemination systems (the Figure 1 shape); the
        grid expands across systems first.
    sweep:
        Optional mapping of dotted spec paths to value lists; expands as a
        cartesian grid over the (possibly compared) base configs.
    seeds:
        Optional list of master seeds — shorthand for a ``seed`` sweep axis.
    reseed:
        Derive a distinct deterministic seed per grid point.
    after:
        Names of services/targets that must complete before this one runs
        (extra DAG edges beyond what the target connectors imply).
    """

    name: str
    scenario: str
    set: Tuple[Tuple[str, object], ...] = ()
    compare: Tuple[str, ...] = ()
    sweep: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    seeds: Tuple[int, ...] = ()
    reseed: bool = False
    after: Tuple[str, ...] = ()

    def validate(self) -> "ServiceSpec":
        """Check names, paths and points before anything runs; returns ``self``.

        The scenario and every compared system must be registered, every
        ``set`` override and ``sweep`` axis must name a settable spec path,
        and every grid point the service expands to must pass
        :meth:`~repro.registry.specs.StackSpec.validate` (its values fit
        their fields and bounds, its fault plan and domain map compile) —
        each failure is a :class:`CampaignError` with a did-you-mean
        suggestion.  The campaign and the ``sweep``/``compare`` commands all
        call this, so a grid mistake reads the same wherever it is made.
        """
        from ..experiments.scenarios import scenario_names, system_names
        from .executor import expand_service

        context = f"service {self.name!r}"
        known_scenarios = scenario_names()
        if self.scenario not in known_scenarios:
            raise CampaignError(
                f"{context}: unknown scenario {self.scenario!r}"
                f"{suggest(self.scenario, known_scenarios)}; "
                f"scenarios: {', '.join(known_scenarios)}"
            )
        known_systems = system_names()
        for system in self.compare:
            if system not in known_systems:
                raise CampaignError(
                    f"{context}: unknown system {system!r}"
                    f"{suggest(system, known_systems)}; "
                    f"systems: {', '.join(known_systems)}"
                )
        for key, values in self.sweep:
            if not values:
                raise CampaignError(
                    f"{context}: sweep axis {key!r} needs a non-empty list of values"
                )
        try:
            for key, _ in self.set + self.sweep:
                path = resolve_spec_path(key)
                if path in STRUCTURED_PATHS:
                    raise CampaignError(
                        f"config field {path!r} is structured and cannot be set or swept"
                    )
            for config in expand_service(self):
                config.spec().validate()
        except RegistryError as error:
            raise CampaignError(f"{context}: {error}") from None
        return self

    @staticmethod
    def from_dict(name: str, payload: Mapping[str, object]) -> "ServiceSpec":
        context = f"service {name!r}"
        if not isinstance(payload, Mapping):
            raise CampaignError(f"{context}: expected an object, got {type(payload).__name__}")
        known = {"scenario", "set", "compare", "sweep", "seeds", "reseed", "after"}
        reject_unknown(payload, known, CampaignError, context)
        if "scenario" not in payload or not isinstance(payload["scenario"], str):
            raise CampaignError(f"{context}: needs a 'scenario' name (see list-scenarios)")
        overrides = payload.get("set", {})
        if not isinstance(overrides, Mapping):
            raise CampaignError(f"{context}: 'set' must map dotted paths to values")

        def typed(key: str, annotation, default):
            # Exactly the declared type: no bool("false"), no tuple("12").
            return fit(annotation, payload.get(key, default), f"{context}: {key!r}", CampaignError)

        return ServiceSpec(
            name=name,
            scenario=payload["scenario"],
            set=tuple((str(key), value) for key, value in overrides.items()),
            compare=typed("compare", Tuple[str, ...], ()),
            sweep=tuple(typed("sweep", Dict[str, Tuple[object, ...]], {}).items()),
            seeds=typed("seeds", Tuple[int, ...], ()),
            reseed=typed("reseed", bool, False),
            after=typed("after", Tuple[str, ...], ()),
        )


@dataclass(frozen=True)
class TargetSpec:
    """One paper artifact: a rendered table/report over service results.

    ``kind`` selects the renderer: ``table`` is the standard results table
    (one row per grid point), ``report`` is the full fairness + latency
    report.  Either way the executor also writes the raw results as a
    ``--json``-shaped artifact next to the rendered text, so ``repro
    report`` can re-render the target without re-running anything.
    """

    name: str
    inputs: Connector
    kind: str = "table"
    title: str = ""

    @staticmethod
    def from_dict(name: str, payload: Mapping[str, object]) -> "TargetSpec":
        context = f"target {name!r}"
        if not isinstance(payload, Mapping):
            raise CampaignError(f"{context}: expected an object, got {type(payload).__name__}")
        reject_unknown(payload, {"inputs", "kind", "title"}, CampaignError, context)
        if "inputs" not in payload:
            raise CampaignError(f"{context}: needs 'inputs' naming its service(s)")
        kind = payload.get("kind", "table")
        if kind not in TARGET_KINDS:
            raise CampaignError(
                f"{context}: unknown kind {kind!r}{suggest(str(kind), TARGET_KINDS)}; "
                f"kinds: {', '.join(TARGET_KINDS)}"
            )
        return TargetSpec(
            name=name,
            inputs=Connector.parse(payload["inputs"], context),
            kind=kind,
            title=str(payload.get("title", "")),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """A named set of targets and services forming one dependency graph."""

    name: str
    services: Tuple[ServiceSpec, ...]
    targets: Tuple[TargetSpec, ...]
    description: str = ""

    # ------------------------------------------------------------- lookups

    def service_names(self) -> List[str]:
        return [service.name for service in self.services]

    def target_names(self) -> List[str]:
        return [target.name for target in self.targets]

    def service(self, name: str) -> ServiceSpec:
        for service in self.services:
            if service.name == name:
                return service
        raise CampaignError(
            f"unknown service {name!r}{suggest(name, self.service_names())}; "
            f"services: {', '.join(self.service_names())}"
        )

    def target(self, name: str) -> TargetSpec:
        for target in self.targets:
            if target.name == name:
                return target
        raise CampaignError(
            f"unknown target {name!r}{suggest(name, self.target_names())}; "
            f"targets: {', '.join(self.target_names())}"
        )

    # ---------------------------------------------------------- validation

    def validate(self) -> "CampaignSpec":
        """Check every cross-reference; returns ``self`` for chaining.

        Each service validates itself (:meth:`ServiceSpec.validate`), target
        inputs are checked against the declared services and ``after``
        edges against the union of services and targets — each failure is
        a :class:`CampaignError` with a did-you-mean suggestion; last comes
        :meth:`check_acyclic`.
        """
        if not self.targets:
            raise CampaignError(f"campaign {self.name!r} declares no targets")
        service_names = self.service_names()
        duplicates = {name for name in service_names if service_names.count(name) > 1}
        duplicates |= {
            name for name in self.target_names() if self.target_names().count(name) > 1
        }
        duplicates |= set(service_names) & set(self.target_names())
        if duplicates:
            raise CampaignError(
                f"campaign {self.name!r}: duplicate node name(s) "
                f"{sorted(duplicates)} (services and targets share one namespace)"
            )
        all_nodes = service_names + self.target_names()
        for service in self.services:
            context = f"service {service.name!r}"
            for dependency in service.after:
                if dependency not in all_nodes:
                    raise CampaignError(
                        f"{context}: 'after' names unknown node {dependency!r}"
                        f"{suggest(dependency, all_nodes)}; "
                        f"nodes: {', '.join(all_nodes)}"
                    )
            service.validate()
        for target in self.targets:
            context = f"target {target.name!r}"
            for dependency in target.inputs.service_names():
                if dependency not in service_names:
                    raise CampaignError(
                        f"{context}: inputs name unknown service {dependency!r}"
                        f"{suggest(dependency, service_names)}; "
                        f"services: {', '.join(service_names)}"
                    )
        self.check_acyclic()
        return self

    def dependencies(self) -> Dict[str, Tuple[str, ...]]:
        """What every node waits for, without repeats or self-edges.

        A service waits for its ``after`` list, then for the services that
        precede it in a ``SEQ`` of any target (targets in declaration order,
        inner connectors first); a target waits for every service its input
        tree names, ``ONE`` alternatives included.
        """
        waits: Dict[str, List[str]] = {
            name: [] for name in self.service_names() + self.target_names()
        }

        def add(node: str, dependency: str) -> None:
            if dependency != node and dependency not in waits[node]:
                waits[node].append(dependency)

        for service in self.services:
            for dependency in service.after:
                add(service.name, dependency)
        for target in self.targets:
            for name in target.inputs.service_names():
                add(target.name, name)
            for later, earlier in target.inputs.seq_edges():
                add(later, earlier)
        return {node: tuple(dependencies) for node, dependencies in waits.items()}

    def check_acyclic(self) -> None:
        """Raise :class:`CampaignError` naming the nodes of a dependency cycle."""
        dependencies = self.dependencies()
        finished: Set[str] = set()

        def visit(node: str, path: List[str]) -> None:
            if node in path:
                raise CampaignError(
                    f"campaign {self.name!r} has a dependency cycle involving "
                    f"{sorted(path[path.index(node):])}"
                )
            if node in finished:
                return
            path.append(node)
            for dependency in dependencies.get(node, ()):
                visit(dependency, path)
            path.pop()
            finished.add(node)

        for node in dependencies:
            visit(node, [])

    # --------------------------------------------------------- round trips

    @staticmethod
    def from_dict(payload: Mapping[str, object]) -> "CampaignSpec":
        if not isinstance(payload, Mapping):
            raise CampaignError(
                f"campaign spec must be a JSON object, got {type(payload).__name__}"
            )
        schema = payload.get("schema", CAMPAIGN_SCHEMA)
        if schema != CAMPAIGN_SCHEMA:
            raise CampaignError(
                f"unsupported campaign schema {schema!r}; expected {CAMPAIGN_SCHEMA!r}"
            )
        known = {"schema", "name", "description", "services", "targets"}
        reject_unknown(payload, known, CampaignError, "campaign spec")
        services_raw = payload.get("services", {})
        targets_raw = payload.get("targets", {})
        if not isinstance(services_raw, Mapping) or not isinstance(targets_raw, Mapping):
            raise CampaignError("campaign 'services' and 'targets' must be objects")
        return CampaignSpec(
            name=str(payload.get("name", "campaign")),
            description=str(payload.get("description", "")),
            services=tuple(
                ServiceSpec.from_dict(str(name), entry)
                for name, entry in services_raw.items()
            ),
            targets=tuple(
                TargetSpec.from_dict(str(name), entry)
                for name, entry in targets_raw.items()
            ),
        )

    @staticmethod
    def from_file(path: str) -> "CampaignSpec":
        """Load, parse, and validate a campaign spec from a JSON file."""
        payload = load_json(path, CAMPAIGN_SCHEMA, CampaignError, "campaign spec")
        return CampaignSpec.from_dict(payload).validate()
