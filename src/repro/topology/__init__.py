"""Hierarchical multi-domain topology: domains, bridges, and geo links.

The paper evaluates gossip on one flat population; the road to "millions of
users" shards that population into *domains* (datacenters, regions).  This
package is the declarative layer that makes a domain layout a first-class,
cache-keyed part of an experiment:

* :class:`~repro.topology.spec.TopologySpec` — JSON-round-trippable
  description: domain count (or an explicit node→domain assignment), a
  per-domain-pair geo latency/loss matrix, and the bridge selection policy;
* :class:`~repro.topology.domains.DomainMap` — the compiled form: member
  lists, deterministic sha256-ranked bridge sets, and resolved link
  effects for every domain pair;
* :class:`~repro.topology.geo.GeoLinkProfile` — installs the matrix on a
  network fabric as per-link latency/loss (both the discrete-event
  :class:`~repro.sim.network.Network` and the live
  :class:`~repro.runtime.network.RuntimeNetwork` consult it on their send
  paths);
* :class:`~repro.topology.membership.DomainScopedMembership` — wraps any
  membership component so peer sampling stays intra-domain;
* :class:`~repro.topology.bridge.BridgeRouter` — re-publishes topic events
  across domain boundaries through designated bridge nodes, with
  duplicate suppression and ``bridge.*`` telemetry.

Everything here is deterministic: bridge and relay selection hash event and
domain names with sha256 (never Python's salted ``hash``), and a topology-free
spec leaves every network draw sequence byte-identical to the flat layout.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "TOPOLOGY_SCHEMA": ".spec",
    "TopologyError": ".spec",
    "TopologySpec": ".spec",
    "DomainMap": ".domains",
    "compile_domain_map": ".domains",
    "GeoLinkProfile": ".geo",
    "DomainScopedMembership": ".membership",
    "domain_scoped_provider": ".membership",
    "BridgeRouter": ".bridge",
    "BRIDGE_MESSAGE_KIND": ".bridge",
    "TopologyRuntime": ".runtime",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
