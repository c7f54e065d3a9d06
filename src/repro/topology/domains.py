"""Compiled domain layout: membership, bridges, and resolved link effects.

:func:`compile_domain_map` turns a validated
:class:`~repro.topology.spec.TopologySpec` plus the run's node ids into a
:class:`DomainMap` — the object every consumer of the topology layer works
with: membership scoping reads ``members``/``domain_of``, the geo profile
reads ``link``, the bridge router reads ``bridges``, and the fault layer
resolves domain-level partitions through ``partition_assignment``.

All selection here is deterministic and seed-independent: bridge ranking
hashes ``domain + "/" + node`` with sha256 (Python's own ``hash`` is salted
per process and must never decide anything reproducible), and auto-generated
domains are contiguous blocks of the sorted node ids, so ``node-000`` ...
``node-005`` land in ``d0`` — the layout a reader of a report expects.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..jsonio import suggest
from .spec import TopologyError, TopologySpec

__all__ = ["DomainMap", "compile_domain_map"]


def _sha256_rank(domain: str, node: str) -> str:
    return hashlib.sha256(f"{domain}/{node}".encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class DomainMap:
    """The compiled, immutable form of a multi-domain topology.

    Attributes
    ----------
    spec:
        The spec this map was compiled from.
    domains:
        Sorted domain names.
    members:
        ``domain -> sorted member node ids`` (every node in exactly one).
    domain_of:
        ``node -> domain`` (inverse of ``members``).
    bridges:
        ``domain -> bridge node ids`` in selection-rank order (the first
        entry is the domain's primary bridge).
    links:
        ``(domain_a, domain_b)`` (sorted pair) ``-> (latency, loss)`` for
        every pair with non-default effects.
    """

    spec: TopologySpec
    domains: Tuple[str, ...]
    members: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    domain_of: Dict[str, str] = field(default_factory=dict)
    bridges: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    links: Dict[Tuple[str, str], Tuple[float, float]] = field(default_factory=dict)
    #: Memo of :meth:`foreign_to`: one set per domain, shared by its members.
    _foreign: Dict[str, FrozenSet[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def domain(self, node_id: str) -> Optional[str]:
        """Domain of ``node_id`` (``None`` for nodes outside the map)."""
        return self.domain_of.get(node_id)

    def link(self, domain_a: str, domain_b: str) -> Tuple[float, float]:
        """``(extra_latency, loss_rate)`` for the (unordered) domain pair."""
        key = (domain_a, domain_b) if domain_a <= domain_b else (domain_b, domain_a)
        explicit = self.links.get(key)
        if explicit is not None:
            return explicit
        if domain_a == domain_b:
            return (0.0, 0.0)
        return (self.spec.cross_latency, self.spec.cross_loss)

    def foreign_to(self, domain: str) -> FrozenSet[str]:
        """Every node outside ``domain``: one set per domain, not per node."""
        if domain not in self._foreign:
            self._foreign[domain] = frozenset(self.domain_of) - frozenset(self.members[domain])
        return self._foreign[domain]

    def bridge_nodes(self) -> Tuple[str, ...]:
        """Every bridge node id, sorted."""
        return tuple(sorted(node for nodes in self.bridges.values() for node in nodes))

    def partition_assignment(self, domain_names: Sequence[str]) -> Dict[str, int]:
        """Partition map isolating the named domains (group 1) from the rest.

        This is how ``FaultPlan`` partition entries with ``domains=[...]``
        resolve to the node-level group map both network fabrics install.
        """
        unknown = [name for name in domain_names if name not in self.members]
        if unknown:
            raise TopologyError(
                f"unknown partition domain(s) {sorted(unknown)}"
                f"{suggest(unknown[0], self.domains)}; "
                f"known domains: {', '.join(self.domains)}"
            )
        isolated = set(domain_names)
        return {
            node: 1 if domain in isolated else 0
            for domain, nodes in self.members.items()
            for node in nodes
        }

    def describe(self) -> str:
        """One line per domain: members, bridges, and cross-link defaults."""
        lines = []
        for domain in self.domains:
            nodes = self.members[domain]
            bridges = ", ".join(self.bridges[domain])
            lines.append(f"{domain}: {len(nodes)} node(s), bridges [{bridges}]")
        lines.append(
            f"cross-domain default: latency +{self.spec.cross_latency}, "
            f"loss {self.spec.cross_loss}"
        )
        return "\n".join(lines)


def compile_domain_map(spec: TopologySpec, node_ids: Sequence[str]) -> DomainMap:
    """Compile a spec against the run's node ids; raise :class:`TopologyError`."""
    spec.validate()
    if not spec.enabled:
        raise TopologyError("cannot compile a disabled topology (domains=0, no assignment)")
    ordered_nodes = sorted(node_ids)
    if not ordered_nodes:
        raise TopologyError("topology needs at least one node")

    if spec.assignment:
        domain_of: Dict[str, str] = {}
        known = set(ordered_nodes)
        for node, domain in spec.assignment:
            if node not in known:
                raise TopologyError(
                    f"topology.assignment names unknown node {node!r}"
                    f"{suggest(node, ordered_nodes)}"
                )
            domain_of[node] = domain
        missing = [node for node in ordered_nodes if node not in domain_of]
        if missing:
            raise TopologyError(
                f"topology.assignment leaves {len(missing)} node(s) unassigned "
                f"(first: {missing[0]!r}); every node needs a domain"
            )
        domains = tuple(sorted(set(domain_of.values())))
        if spec.domains and spec.domains != len(domains):
            raise TopologyError(
                f"topology.domains={spec.domains} but the explicit assignment "
                f"defines {len(domains)} domain(s)"
            )
    else:
        count = spec.domains
        if count > len(ordered_nodes):
            raise TopologyError(
                f"topology.domains={count} exceeds the node count ({len(ordered_nodes)}); "
                "every domain needs at least one member"
            )
        domains = tuple(f"d{index}" for index in range(count))
        domain_of = {
            node: domains[index * count // len(ordered_nodes)]
            for index, node in enumerate(ordered_nodes)
        }

    members: Dict[str, List[str]] = {domain: [] for domain in domains}
    for node in ordered_nodes:
        members[domain_of[node]].append(node)

    bridges: Dict[str, Tuple[str, ...]] = {}
    for domain in domains:
        nodes = members[domain]
        count = min(spec.bridges_per_domain, len(nodes))
        if spec.bridge_policy == "lexical":
            ranked = nodes[:count]
        else:  # sha256 (validated above)
            ranked = sorted(nodes, key=lambda node: _sha256_rank(domain, node))[:count]
        bridges[domain] = tuple(ranked)

    links: Dict[Tuple[str, str], Tuple[float, float]] = {}
    for domain_a, domain_b, latency, loss in spec.geo:
        for name in (domain_a, domain_b):
            if name not in members:
                raise TopologyError(
                    f"topology.geo names unknown domain {name!r}"
                    f"{suggest(name, domains)}; known domains: {', '.join(domains)}"
                )
        key = (domain_a, domain_b) if domain_a <= domain_b else (domain_b, domain_a)
        links[key] = (float(latency), float(loss))

    return DomainMap(
        spec=spec,
        domains=domains,
        members={domain: tuple(nodes) for domain, nodes in members.items()},
        domain_of=domain_of,
        bridges=bridges,
        links=links,
    )
