"""Asyncio-backed scheduler with the simulator's scheduling surface.

Protocol code (``Process`` subclasses, membership components, gossip nodes)
interacts with the engine exclusively through ``simulator.now``,
``simulator.rng``, ``simulator.schedule*``, and the returned timer handles.
:class:`AsyncScheduler` implements exactly that surface on top of a running
asyncio event loop, so the simulator-facing protocol classes run live
without modification: a :class:`~repro.runtime.clock.WallClock` supplies
``now`` and timer delays are converted from time units to real seconds.
Only the one-shot path differs from the engine (``loop.call_later`` instead
of a heap): :class:`AsyncPeriodicTimer` *is* the engine's
:class:`~repro.sim.engine.PeriodicTimer` — same ``"periodic-timers"`` jitter
stream, same re-arming — plus leaving the scheduler's shutdown set on
``stop``.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional, Set

from ..sim.engine import PeriodicTimer, SimulationError
from ..sim.rng import RngRegistry
from .clock import WallClock

__all__ = ["AsyncScheduler", "AsyncScheduledEvent", "AsyncPeriodicTimer"]


class AsyncScheduledEvent:
    """Handle for a one-shot scheduled callback (mirrors ``ScheduledEvent``)."""

    def __init__(self, timestamp: float, label: str = "") -> None:
        self.timestamp = timestamp
        self.label = label
        self.cancelled = False
        self._handle: Optional[asyncio.TimerHandle] = None

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


class AsyncScheduler:
    """Duck-typed stand-in for :class:`~repro.sim.engine.Simulator`.

    Parameters
    ----------
    clock:
        The wall clock mapping time units onto real time.
    rng:
        Named random streams, exactly as in the simulator; protocol draws
        stay seeded and reproducible even though message timing is not.
    """

    def __init__(self, clock: WallClock, rng: Optional[RngRegistry] = None, seed: int = 0) -> None:
        self.clock = clock
        self.rng = rng if rng is not None else RngRegistry(seed)
        self._events: Set[AsyncScheduledEvent] = set()
        self._timers: Set["AsyncPeriodicTimer"] = set()
        self._processed = 0

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        """Current time in time units (wall-clock driven)."""
        return self.clock.now

    @property
    def processed_events(self) -> int:
        """Number of scheduled callbacks executed so far."""
        return self._processed

    # ------------------------------------------------------------ scheduling

    def schedule(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> AsyncScheduledEvent:
        """Schedule ``action`` to run ``delay`` time units from now (NaN is refused)."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        loop = asyncio.get_running_loop()
        event = AsyncScheduledEvent(timestamp=self.now + delay, label=label)

        def fire() -> None:
            self._events.discard(event)
            if event.cancelled:
                return
            self._processed += 1
            action()

        event._handle = loop.call_later(self.clock.units_to_seconds(delay), fire)
        self._events.add(event)
        return event

    def schedule_at(
        self, timestamp: float, action: Callable[[], None], label: str = ""
    ) -> AsyncScheduledEvent:
        """Schedule ``action`` at absolute time ``timestamp`` (units; NaN is refused)."""
        delay = timestamp - self.now
        if not delay >= 0:
            raise SimulationError(
                f"cannot schedule at {timestamp}, current time is {self.now}"
            )
        return self.schedule(delay, action, label)

    def schedule_periodic(
        self,
        period: float,
        action: Callable[[], None],
        label: str = "",
        initial_delay: Optional[float] = None,
        jitter: float = 0.0,
    ) -> "AsyncPeriodicTimer":
        """Schedule ``action`` every ``period`` units until the timer stops."""
        timer = AsyncPeriodicTimer(self, period, action, label=label, jitter=jitter)
        timer.start(initial_delay if initial_delay is not None else period)
        self._timers.add(timer)
        return timer

    # ------------------------------------------------------------- lifecycle

    def shutdown(self) -> None:
        """Cancel every pending one-shot event and stop every timer."""
        for event in list(self._events):
            event.cancel()
        self._events.clear()
        for timer in list(self._timers):
            timer.stop()
        self._timers.clear()


class AsyncPeriodicTimer(PeriodicTimer):
    """The engine's :class:`~repro.sim.engine.PeriodicTimer` on an :class:`AsyncScheduler`.

    Period, jitter stream, start/stop and the re-arming are the engine's;
    the timer only needs a scheduler with ``schedule`` and ``rng``.
    """

    def stop(self) -> None:
        """Cancel any pending firing and leave the scheduler's shutdown set."""
        super().stop()
        self._simulator._timers.discard(self)

    # Not inherited: perfbench spans the live timer by patching this class's
    # own ``_fire``, and a live run must not enter the engine's spanned one.
    def _fire(self) -> None:
        self._fire_once()
