"""Identifier space for the structured (DHT) baselines.

Pastry (reference [14]) assigns nodes and keys uniformly distributed
identifiers and routes by resolving one digit (base ``2^b``) per hop towards
the node numerically closest to the key.  This module provides the id space
arithmetic: hashing names to ids, digit extraction, shared-prefix length, and
circular distance.  It is deliberately independent of the simulator so it can
be unit- and property-tested in isolation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

__all__ = ["IdSpace"]


@dataclass(frozen=True)
class IdSpace:
    """A ``bits``-wide circular identifier space with base-``2^digit_bits`` digits.

    The defaults (32-bit ids, hexadecimal digits) keep printed ids readable in
    traces while preserving Pastry's structure; the real system uses 128-bit
    ids but nothing in the routing logic depends on the width.
    """

    bits: int = 32
    digit_bits: int = 4

    def __post_init__(self) -> None:
        if self.bits <= 0 or self.digit_bits <= 0:
            raise ValueError("bits and digit_bits must be positive")
        if self.bits % self.digit_bits != 0:
            raise ValueError("bits must be a multiple of digit_bits")

    # ------------------------------------------------------------ basic ops

    @property
    def size(self) -> int:
        """Number of distinct identifiers."""
        return 1 << self.bits

    @property
    def digits(self) -> int:
        """Number of digits in an identifier."""
        return self.bits // self.digit_bits

    @property
    def digit_base(self) -> int:
        """Radix of one digit (16 for hexadecimal digits)."""
        return 1 << self.digit_bits

    def hash_name(self, name: str) -> int:
        """Deterministically map an arbitrary name to an identifier."""
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        return int.from_bytes(digest, "big") % self.size

    def digit(self, identifier: int, position: int) -> int:
        """The ``position``-th most significant digit of ``identifier``."""
        if not 0 <= position < self.digits:
            raise ValueError(f"position must be within [0, {self.digits})")
        shift = self.bits - (position + 1) * self.digit_bits
        return (identifier >> shift) & (self.digit_base - 1)

    def shared_prefix_length(self, left: int, right: int) -> int:
        """Number of leading digits the two identifiers share.

        The highest differing bit decides it, so no digit is extracted; exact
        for identifiers in ``[0, 2^bits)``, and equal ones share every digit.
        """
        return (self.bits - (left ^ right).bit_length()) // self.digit_bits

    def distance(self, left: int, right: int) -> int:
        """Circular distance between two identifiers."""
        difference = abs(left - right)
        return min(difference, self.size - difference)

    def format(self, identifier: int) -> str:
        """Fixed-width hexadecimal rendering used in traces."""
        width = self.bits // 4
        return f"{identifier:0{width}x}"

    # ----------------------------------------------------------- selections

    def closest(self, key: int, candidates: Iterable[int]) -> Optional[int]:
        """The candidate identifier numerically closest to ``key``.

        Ties are broken towards the numerically smaller identifier so the
        choice of root for a key is unambiguous across call sites.
        """
        best: Optional[int] = None
        best_distance: Optional[int] = None
        for candidate in candidates:
            candidate_distance = self.distance(key, candidate)
            if (
                best_distance is None
                or candidate_distance < best_distance
                or (candidate_distance == best_distance and best is not None and candidate < best)
            ):
                best = candidate
                best_distance = candidate_distance
        return best
