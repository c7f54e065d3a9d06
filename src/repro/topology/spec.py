"""Declarative topology specification.

:class:`TopologySpec` is the spec-side face of the topology layer, modeled
on :class:`~repro.registry.specs.FaultsSpec`: a frozen dataclass whose every
field maps onto a flat ``topology_*``
:class:`~repro.experiments.config.ExperimentConfig` field (topology is
*physics* and therefore feeds the result-cache identity), with a JSON codec
for ``--topology topo.json`` files.  A spec at its default (``domains=0``)
means "flat population" and is omitted from every serialised form, so
topology-free configs hash byte-identically to their pre-topology selves.

This module is dependency-light on purpose (stdlib and :mod:`repro.jsonio`
only): the registry's spec layer imports it, and nothing here may pull
protocol code into that import graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Mapping, Tuple

from ..jsonio import Bound, decode, load_json, refit, suggest

__all__ = ["TOPOLOGY_SCHEMA", "TopologyError", "TopologySpec", "BRIDGE_POLICIES"]

#: Schema tag carried by standalone ``--topology`` files.
TOPOLOGY_SCHEMA = "topology/v1"

#: Known bridge selection policies: ``sha256`` ranks each domain's members
#: by ``sha256(domain + "/" + node)`` (stable, seed-independent, and
#: uncorrelated with node naming); ``lexical`` takes the first members in
#: sorted-id order (predictable, handy in tests and docs).
BRIDGE_POLICIES: Tuple[str, ...] = ("sha256", "lexical")


class TopologyError(ValueError):
    """Invalid topology specification or compilation input."""


@dataclass(frozen=True)
class TopologySpec:
    """How a population is sharded into domains and federated by bridges.

    Attributes
    ----------
    domains:
        Number of domains; 0 (the default) disables the topology layer
        entirely.  Auto-generated domains are named ``d0`` ... ``dN-1`` and
        filled with contiguous blocks of the sorted node ids.
    bridges_per_domain:
        How many designated bridge (relay) nodes each domain runs.
    bridge_policy:
        Bridge selection policy (see :data:`BRIDGE_POLICIES`).
    cross_latency / cross_loss:
        Default extra latency / Bernoulli loss applied to every
        cross-domain link not covered by an explicit ``geo`` entry.
        Intra-domain links default to no extra effects.
    assignment:
        Optional explicit ``(node, domain)`` pairs; when present it defines
        the domain layout (and every node must appear exactly once).
        Structured — set via ``--topology topo.json``, not ``--set``.
    geo:
        Per-pair matrix entries ``(domain_a, domain_b, latency, loss)``
        overriding the defaults for that unordered pair (``a == b`` entries
        degrade intra-domain links).  Structured, like ``assignment``.
    """

    domains: Annotated[int, Bound(0)] = 0
    bridges_per_domain: Annotated[int, Bound(1)] = 1
    bridge_policy: str = "sha256"
    cross_latency: Annotated[float, Bound(0)] = 0.0
    cross_loss: Annotated[float, Bound(0, 1)] = 0.0
    assignment: Tuple[Tuple[str, str], ...] = ()
    geo: Tuple[
        Tuple[str, str, Annotated[float, Bound(0)], Annotated[float, Bound(0, 1)]], ...
    ] = ()

    @property
    def enabled(self) -> bool:
        """Whether this spec describes a non-flat (multi-domain) layout."""
        return self.domains > 0 or bool(self.assignment)

    # ------------------------------------------------------------- validation

    def validate(self) -> None:
        """Check the fields and the node assignment; raise :class:`TopologyError`.

        Each field's bound is declared on it (:func:`repro.jsonio.refit`);
        what is left is a known bridge policy and one domain per node.
        """
        refit(self, TopologyError, "topology.")
        if self.bridge_policy not in BRIDGE_POLICIES:
            raise TopologyError(
                f"unknown topology.bridge_policy {self.bridge_policy!r}"
                f"{suggest(self.bridge_policy, BRIDGE_POLICIES)}; "
                f"known policies: {', '.join(BRIDGE_POLICIES)}"
            )
        seen_nodes = set()
        for node, _ in self.assignment:
            if node in seen_nodes:
                raise TopologyError(f"node {node!r} assigned to more than one domain")
            seen_nodes.add(node)

    # ------------------------------------------------------------ dict codecs

    @staticmethod
    def from_dict(payload: Mapping[str, object]) -> "TopologySpec":
        """Rebuild and :meth:`validate` a spec; a ``schema`` tag is accepted.

        Unknown fields raise with a did-you-mean hint, mistyped ones (a
        2-item ``geo`` row, a quoted number) with the field's name.
        """
        return decode(
            TopologySpec, payload, TopologyError, "topology spec", TOPOLOGY_SCHEMA, "topology."
        )

    @staticmethod
    def from_file(path: str) -> "TopologySpec":
        """Load a spec from a ``--topology`` JSON file."""
        return TopologySpec.from_dict(
            load_json(path, TOPOLOGY_SCHEMA, TopologyError, "topology file")
        )
