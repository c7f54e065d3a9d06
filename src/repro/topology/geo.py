"""Geo link profile: the domain matrix as per-link latency/loss effects.

A :class:`GeoLinkProfile` is what the topology layer installs on a network
fabric (``network.set_link_profile(profile)``).  Both fabrics consult it on
their send paths: the effects of a message are those of the (unordered)
domain pair of its endpoints — extra latency added on top of the
simulator's constant link latency (or the live wire's own), extra Bernoulli
loss drawn from the profile's own named RNG stream.

The profile is *physics installed at build time* and deliberately separate
from the fault layer's global perturbation (``set_perturbation``): a
:class:`~repro.faults.controller.FaultController` tearing down clears the
perturbation but must not strip a run's geography.  Validation, however, is
one code path — every resolved link is checked by the same
:func:`~repro.sim.network.validate_link_perturbation` the global actuator
uses.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from ..sim.network import validate_link_perturbation
from .domains import DomainMap
from .spec import TopologyError

__all__ = ["GeoLinkProfile"]

_NO_EFFECTS: Tuple[float, float] = (0.0, 0.0)


class GeoLinkProfile:
    """Per-link latency/loss effects resolved from a :class:`DomainMap`.

    Parameters
    ----------
    domain_map:
        The compiled topology.
    rng:
        Named random stream for loss draws (for example
        ``scheduler.rng.stream("topology-geo")``).  Required whenever any
        resolved link has a non-zero loss rate; loss-free profiles never
        draw, so the topology layer leaves every pre-existing draw sequence
        untouched.
    """

    def __init__(self, domain_map: DomainMap, rng: Optional[random.Random] = None) -> None:
        self._domain_of = domain_map.domain_of
        self.rng = rng
        effects: Dict[Tuple[str, str], Tuple[float, float]] = {}
        for index, domain_a in enumerate(domain_map.domains):
            for domain_b in domain_map.domains[index:]:
                latency, loss = domain_map.link(domain_a, domain_b)
                try:
                    validate_link_perturbation(latency, loss, rng)
                except ValueError as error:
                    raise TopologyError(
                        f"invalid geo link {domain_a}<->{domain_b}: {error}"
                    ) from None
                if (latency, loss) != _NO_EFFECTS:
                    effects[(domain_a, domain_b)] = (latency, loss)
        self._effects = effects

    def effects(self, sender: str, recipient: str) -> Tuple[float, float]:
        """``(extra_latency, loss_rate)`` for one message between two nodes.

        Nodes outside the domain map (infrastructure endpoints, late
        joiners) see no geo effects.
        """
        domain_a = self._domain_of.get(sender)
        if domain_a is None:
            return _NO_EFFECTS
        domain_b = self._domain_of.get(recipient)
        if domain_b is None:
            return _NO_EFFECTS
        if domain_a > domain_b:
            domain_a, domain_b = domain_b, domain_a
        return self._effects.get((domain_a, domain_b), _NO_EFFECTS)
