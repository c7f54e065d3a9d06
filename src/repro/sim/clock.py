"""Clocks: the time interface shared by the simulator and the live runtime.

Time is a float measured in abstract "time units"; gossip protocols typically
use one unit per gossip round, while the network model uses fractions of a
unit for per-link latency.  :class:`Clock` fixes the one property every
consumer of time relies on (``now``), so the same protocol code runs against
the simulator's :class:`VirtualClock` (advanced only by the scheduler) and
the runtime's :class:`repro.runtime.clock.WallClock` (advanced by the
operating system).
"""

from __future__ import annotations

__all__ = ["Clock", "VirtualClock"]


def _validated_start(start: float) -> float:
    """Validate a clock start time; shared by both clocks' ``__init__``."""
    if start < 0:
        raise ValueError("start time must be non-negative")
    return float(start)


class Clock:
    """Monotonically increasing time source measured in time units.

    The contract is minimal on purpose: protocol code only ever *reads* the
    clock; who advances it (the discrete-event scheduler or the OS) is an
    implementation detail of the concrete clock.
    """

    @property
    def now(self) -> float:
        """Current time in time units; never decreases."""
        raise NotImplementedError


class VirtualClock(Clock):
    """Monotonically increasing simulated time."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = _validated_start(start)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def advance_to(self, timestamp: float) -> None:
        """Move the clock forward to ``timestamp``.

        Raises
        ------
        ValueError
            If ``timestamp`` is earlier than the current time; the simulator
            never travels backwards.
        """
        if timestamp < self._now:
            raise ValueError(
                f"cannot move clock backwards: now={self._now}, requested={timestamp}"
            )
        self._now = float(timestamp)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now!r})"
