"""Seeded random-number utilities for reproducible simulations.

Every stochastic component of the simulator draws from a :class:`RngRegistry`
stream rather than from the global :mod:`random` module.  Each named stream is
an independent :class:`random.Random` instance derived deterministically from
the registry seed, so adding a new source of randomness (for example a new
failure model) does not perturb the draws made by existing components.  This
is the standard "independent substreams" discipline used by discrete-event
simulators to keep experiments comparable across code changes.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterable, List, Sequence, TypeVar

T = TypeVar("T")

__all__ = ["RngRegistry", "derive_seed", "zipf_weights", "weighted_choice"]


def derive_seed(base_seed: int, name: str) -> int:
    """Derive a child seed from ``base_seed`` and a stream ``name``.

    The derivation hashes the pair so that streams with similar names (for
    example ``"node-1"`` and ``"node-11"``) do not end up correlated, which
    can happen with naive additive schemes.
    """
    digest = hashlib.sha256(f"{base_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """A registry of named, independently seeded random streams.

    Parameters
    ----------
    seed:
        Master seed.  Two registries built with the same seed produce
        identical draws for identically named streams, irrespective of the
        order in which the streams are first requested.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The master seed this registry was built with."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the named random stream, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self._seed, name))
            self._streams[name] = rng
        return rng


def zipf_weights(count: int, exponent: float = 1.0) -> List[float]:
    """Return normalised Zipf weights for ranks ``1..count``.

    The first rank is the most popular.  ``exponent`` of 0 yields a uniform
    distribution; larger exponents concentrate the mass on the head.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    raw = [1.0 / (rank ** exponent) for rank in range(1, count + 1)]
    total = sum(raw)
    return [weight / total for weight in raw]


def weighted_choice(rng: random.Random, items: Sequence[T], weights: Sequence[float]) -> T:
    """Pick one item according to ``weights`` using the provided ``rng``.

    A tiny wrapper around :meth:`random.Random.choices` that returns a single
    element and validates the arguments, so call sites stay one-liners.
    """
    if len(items) != len(weights):
        raise ValueError("items and weights must have the same length")
    if not items:
        raise ValueError("cannot choose from an empty sequence")
    return rng.choices(list(items), weights=list(weights), k=1)[0]
