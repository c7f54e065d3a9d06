"""The discrete-event simulation engine.

The engine owns a priority queue of timestamped callbacks and a
:class:`~repro.sim.clock.VirtualClock`.  Protocol code never sleeps or spins:
it schedules future work (a timer tick, a message arrival) and returns.  The
engine pops events in timestamp order, advances the clock, and invokes the
callbacks.  The queue holds plain ``(timestamp, sequence, event)`` tuples;
the sequence number is unique, so ties are broken by insertion order, the
events themselves are never compared, and runs are fully deterministic for a
given seed.

The network delivers a same-instant send wave as one event, so event counts
(``processed_events``, ``run``'s return and ``max_events``) count batches.

The engine is deliberately minimal: everything network- or process-related
lives in :mod:`repro.sim.network` and :mod:`repro.sim.node`, which are built
on top of :meth:`Simulator.schedule`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .clock import VirtualClock
from .rng import RngRegistry

__all__ = ["Simulator", "ScheduledEvent", "PeriodicTimer", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the simulation is driven in an inconsistent way."""


@dataclass(slots=True)
class ScheduledEvent:
    """A single scheduled callback.

    Attributes
    ----------
    timestamp:
        Simulated time at which the callback fires.
    action:
        Zero-argument callable invoked when the event fires.
    label:
        Human-readable tag used in traces and error messages.
    cancelled:
        Set via :meth:`cancel`; cancelled events are skipped when popped.
    """

    timestamp: float
    action: Callable[[], None]
    label: str = ""
    cancelled: bool = False

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self.cancelled = True


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the attached :class:`RngRegistry`.
    start_time:
        Initial value of the virtual clock.
    """

    def __init__(self, seed: int = 0, start_time: float = 0.0) -> None:
        self.clock = VirtualClock(start_time)
        self.rng = RngRegistry(seed)
        self._queue: List[Tuple[float, int, ScheduledEvent]] = []
        self._sequence = itertools.count()
        self._processed = 0
        #: The event queued last (the network's delivery batches check it).
        self._last: Optional[ScheduledEvent] = None

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock._now

    @property
    def processed_events(self) -> int:
        """Callbacks executed so far (cancelled ones excluded; a delivery batch is one)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    # ------------------------------------------------------------ scheduling

    def schedule(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``action`` to run ``delay`` time units from now (NaN is refused)."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.clock._now + delay, action, label)

    def schedule_at(
        self, timestamp: float, action: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``action`` to run at absolute time ``timestamp`` (NaN is refused)."""
        now = self.clock._now
        if not timestamp >= now:
            raise SimulationError(f"cannot schedule at {timestamp}, current time is {now}")
        event = self._last = ScheduledEvent(timestamp, action, label)
        heapq.heappush(self._queue, (timestamp, next(self._sequence), event))
        return event

    def schedule_periodic(
        self,
        period: float,
        action: Callable[[], None],
        label: str = "",
        initial_delay: Optional[float] = None,
        jitter: float = 0.0,
    ) -> "PeriodicTimer":
        """Schedule ``action`` every ``period`` units until the timer is stopped.

        ``jitter`` adds a uniform random offset in ``[0, jitter)`` to each
        firing, drawn from the ``"periodic-timers"`` stream; gossip protocols
        use it to avoid artificial round synchronisation across nodes.
        """
        timer = PeriodicTimer(self, period, action, label=label, jitter=jitter)
        timer.start(initial_delay if initial_delay is not None else period)
        return timer

    # --------------------------------------------------------------- running

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event was executed, ``False`` if the queue was
        empty (or contained only cancelled events).
        """
        queue = self._queue
        while queue:
            timestamp, _, event = heapq.heappop(queue)
            if event.cancelled:
                continue
            self.clock.advance_to(timestamp)
            event.action()
            self._processed += 1
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the next event would fire after this time.  The clock is
            left at ``until`` (if given) so post-run measurements see the full
            window.  ``None`` runs until the queue drains.
        max_events:
            Safety valve against runaway schedules; ``None`` means unlimited.
            When it stops the run with events still due at or before
            ``until``, the clock stays at the last executed event so the
            next ``run``/``step`` can pick them up.

        Returns
        -------
        int
            The number of events executed by this call.
        """
        executed = 0
        queue = self._queue
        while queue:
            timestamp, _, event = queue[0]
            if event.cancelled:
                heapq.heappop(queue)
            elif until is not None and timestamp > until:
                break
            elif max_events is not None and executed >= max_events:
                return executed
            else:
                self.step()
                executed += 1
        if until is not None and until > self.clock._now:
            self.clock.advance_to(until)
        return executed


class PeriodicTimer:
    """Repeating timer driven by a :class:`Simulator`.

    The timer reschedules itself after each firing; calling :meth:`stop`
    cancels the pending occurrence and stops the cycle.
    """

    def __init__(
        self,
        simulator: Simulator,
        period: float,
        action: Callable[[], None],
        label: str = "",
        jitter: float = 0.0,
    ) -> None:
        if not period > 0:
            raise SimulationError("period must be positive")
        if not jitter >= 0:
            raise SimulationError("jitter must be non-negative")
        self._simulator = simulator
        self._period = period
        self._action = action
        self._label = label or "periodic"
        self._jitter = jitter
        self._jitter_rng = simulator.rng.stream("periodic-timers") if jitter else None
        self._pending: Optional[ScheduledEvent] = None
        self._stopped = True
        self.fire_count = 0

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Arm the timer; the first firing happens after ``initial_delay``."""
        self._stopped = False
        delay = self._period if initial_delay is None else initial_delay
        self._schedule(delay)

    def stop(self) -> None:
        """Cancel any pending firing and stop rescheduling."""
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _schedule(self, delay: float) -> None:
        offset = 0.0
        if self._jitter:
            offset = self._jitter_rng.uniform(0.0, self._jitter)
        self._pending = self._simulator.schedule(delay + offset, self._fire, label=self._label)

    def _fire(self) -> None:
        self._fire_once()

    def _fire_once(self) -> None:
        """One firing: count, act, re-arm unless the action stopped the timer.

        Kept apart from :meth:`_fire` so the live runtime's timer subclass
        can define a ``_fire`` of its own over the same body (perfbench
        spans each engine's ``_fire`` separately by patching its class).
        """
        if self._stopped:
            return
        self.fire_count += 1
        self._action()
        if not self._stopped:
            self._schedule(self._period)
