"""Wall clock: real time expressed in the simulator's time units.

The protocols measure everything — round periods, latencies, buffer ages —
in abstract time units.  :class:`WallClock` maps those units onto the
operating system's monotonic clock so the same protocol code runs live:
``time_scale`` units elapse per real second, which lets a live cluster run
its gossip rounds faster than one-round-per-second without touching any
protocol parameter (a ``round_period`` of 1.0 unit at ``time_scale=10`` is a
100 ms real round).
"""

from __future__ import annotations

import time
from typing import Callable

from ..sim.clock import Clock, _validated_start

__all__ = ["WallClock"]


class WallClock(Clock):
    """Monotonic wall-clock time in protocol time units.

    Parameters
    ----------
    time_scale:
        Time units per real second.  ``1.0`` means one unit is one second;
        ``20.0`` runs the protocol twenty times faster than real time.
    start:
        Value of ``now`` at construction time.
    time_source:
        Seconds-returning monotonic callable, injectable for tests.
    """

    def __init__(
        self,
        time_scale: float = 1.0,
        start: float = 0.0,
        time_source: Callable[[], float] = time.monotonic,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.time_scale = float(time_scale)
        self._time_source = time_source
        self._start_units = _validated_start(start)
        self._epoch_seconds = time_source()

    @property
    def now(self) -> float:
        """Current time in time units since the clock was created."""
        elapsed = self._time_source() - self._epoch_seconds
        return self._start_units + elapsed * self.time_scale

    def units_to_seconds(self, units: float) -> float:
        """Convert a duration in time units to real seconds."""
        return units / self.time_scale

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WallClock(now={self.now:.3f}, time_scale={self.time_scale})"
