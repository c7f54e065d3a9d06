"""Process (node) abstraction.

A :class:`Process` is the unit the paper calls a *participant*: it can send
and receive messages, run periodic timers (gossip rounds), crash, and
recover.  Protocol implementations subclass :class:`Process` and override the
``on_*`` hooks; everything else (registration with the network, timer
bookkeeping, liveness) is handled here so protocol code stays focused on the
dissemination logic.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .engine import PeriodicTimer, Simulator
from .network import Message, Network

__all__ = ["Process", "ProcessRegistry"]


class Process:
    """Base class for simulated processes.

    Parameters
    ----------
    node_id:
        Unique identifier (the paper's :math:`p_i`).
    simulator / network:
        The shared engine and message fabric.
    """

    def __init__(self, node_id: str, simulator: Simulator, network: Network) -> None:
        self.node_id = node_id
        self.simulator = simulator
        self.network = network
        self._timers: Dict[str, PeriodicTimer] = {}
        self._started = False
        self._crashed = False
        network.register(node_id, self._receive)

    # ------------------------------------------------------------ lifecycle

    @property
    def alive(self) -> bool:
        """Whether the process is up (started and not crashed)."""
        return self._started and not self._crashed

    def start(self) -> None:
        """Bring the process up; idempotent."""
        if self._started and not self._crashed:
            return
        self._started = True
        self._crashed = False
        self.network.set_alive(self.node_id, True)
        self.on_start()

    def crash(self) -> None:
        """Fail-stop the process: timers stop, messages are no longer received."""
        if self._crashed:
            return
        self._crashed = True
        self.network.set_alive(self.node_id, False)
        for timer in self._timers.values():
            timer.stop()
        self.on_crash()

    def recover(self) -> None:
        """Bring a crashed process back; protocol state is preserved.

        Protocols that need amnesia-on-recovery override :meth:`on_recover`
        and reset their own state there.
        """
        if not self._crashed:
            return
        self._crashed = False
        self.network.set_alive(self.node_id, True)
        self.on_recover()

    def leave(self) -> None:
        """Gracefully leave the system (announces nothing by default)."""
        self.on_leave()
        self.crash()
        self.network.unregister(self.node_id)

    # --------------------------------------------------------------- timers

    def add_timer(
        self,
        name: str,
        period: float,
        initial_delay: Optional[float] = None,
        jitter: float = 0.0,
    ) -> PeriodicTimer:
        """Install a named periodic timer calling :meth:`on_timer`.

        Re-adding an existing name replaces (stops) the previous timer.
        """
        existing = self._timers.get(name)
        if existing is not None:
            existing.stop()
        timer = self.simulator.schedule_periodic(
            period,
            lambda: self._fire_timer(name),
            label=f"{self.node_id}:{name}",
            initial_delay=initial_delay,
            jitter=jitter,
        )
        self._timers[name] = timer
        return timer

    def _fire_timer(self, name: str) -> None:
        if not self.alive:
            return
        self.on_timer(name)

    # ------------------------------------------------------------ messaging

    def send(
        self,
        recipient: str,
        kind: str,
        payload: object = None,
        size: int = 1,
        trace: object = None,
    ) -> Optional[Message]:
        """Send a message if this process is alive; returns the message or None."""
        if not self.alive:
            return None
        return self.network.send(self.node_id, recipient, kind, payload, size, trace)

    def _receive(self, message: Message) -> None:
        if not self.alive:
            return
        self.on_message(message)

    # ----------------------------------------------------------------- hooks

    def on_start(self) -> None:
        """Called when the process starts; override to install timers."""

    def on_timer(self, name: str) -> None:
        """Called on every firing of a timer installed via :meth:`add_timer`."""

    def on_message(self, message: Message) -> None:
        """Called for every message delivered to this process."""

    def on_crash(self) -> None:
        """Called when the process crashes."""

    def on_recover(self) -> None:
        """Called when a crashed process recovers."""

    def on_leave(self) -> None:
        """Called before a graceful leave."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "down"
        return f"<{type(self).__name__} {self.node_id} {state}>"


class ProcessRegistry:
    """Keeps track of all processes in a simulation run.

    Workload generators and the fault controller operate on the registry rather
    than holding their own node lists, so late joins and leaves are visible to
    everyone.
    """

    def __init__(self) -> None:
        self._processes: Dict[str, Process] = {}
        #: The owning system's :class:`~repro.pubsub.subscriptions.SubscriptionTable`
        #: (``None`` for a bare registry): a node that leaves for good has its
        #: active subscriptions cancelled there.
        self.subscriptions = None

    def add(self, process: Process) -> None:
        """Register a process under its node id."""
        if process.node_id in self._processes:
            raise ValueError(f"duplicate node id {process.node_id!r}")
        self._processes[process.node_id] = process

    def remove(self, node_id: str) -> None:
        """Forget a process (after it has left)."""
        self._processes.pop(node_id, None)

    def get(self, node_id: str) -> Process:
        """Return the process with the given id (KeyError if unknown)."""
        return self._processes[node_id]

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._processes

    def __len__(self) -> int:
        return len(self._processes)

    def ids(self) -> List[str]:
        """All registered node ids, in insertion order."""
        return list(self._processes)

    def all(self) -> List[Process]:
        """All registered processes, in insertion order."""
        return list(self._processes.values())

    def alive(self) -> List[Process]:
        """Processes that are currently up."""
        return [process for process in self._processes.values() if process.alive]
