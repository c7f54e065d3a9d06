"""CYCLON-style partial view shuffling (reference [15] of the paper).

Each node keeps a bounded :class:`~repro.membership.views.PartialView`.
Every round the node:

1. ages all descriptors by one,
2. picks the *oldest* descriptor as the shuffle target,
3. sends the target a random subset of its view (including a fresh
   descriptor of itself),
4. the target answers with a random subset of its own view, and both sides
   merge what they received, preferring fresh entries and discarding entries
   describing themselves.

The aging rule is what flushes crashed nodes out of the overlay: their
descriptors only grow older and are eventually evicted, without any explicit
failure detector.  The shuffle messages travel over the simulated network, so
their cost shows up in the fairness accounting as infrastructure work, which
the paper explicitly includes in a process's contribution (§2: "these might
include application messages as well as infrastructure messages").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..sim.network import Message
from ..sim.node import Process
from .base import MembershipComponent
from .views import Descriptor, PartialView

__all__ = ["CyclonMembership", "cyclon_provider", "ShufflePayload"]

SHUFFLE_REQUEST = MembershipComponent.MESSAGE_PREFIX + "cyclon.request"
SHUFFLE_REPLY = MembershipComponent.MESSAGE_PREFIX + "cyclon.reply"


@dataclass(frozen=True)
class ShufflePayload:
    """Descriptors exchanged during a shuffle, ``(node_id, age)`` pairs."""

    descriptors: Tuple[Descriptor, ...]


class CyclonMembership(MembershipComponent):
    """Per-node CYCLON shuffling component.

    Parameters
    ----------
    owner:
        The process this component belongs to.
    view_size:
        Capacity of the partial view (CYCLON's ``c``).
    shuffle_size:
        Number of descriptors exchanged per shuffle (CYCLON's ``l``).
    """

    def __init__(self, owner: Process, view_size: int = 20, shuffle_size: int = 5) -> None:
        super().__init__(owner)
        if shuffle_size <= 0 or view_size <= 0:
            raise ValueError("view_size and shuffle_size must be positive")
        if shuffle_size > view_size:
            raise ValueError("shuffle_size cannot exceed view_size")
        self.view = PartialView(owner.node_id, capacity=view_size)
        self.shuffle_size = shuffle_size
        self.shuffles_initiated = 0
        self.shuffles_answered = 0
        self._pending_sent: Optional[Tuple[str, Tuple[Descriptor, ...]]] = None
        #: Every node shuffles every round, so the stream is bound up front.
        self._rng = owner.simulator.rng.stream(f"cyclon:{owner.node_id}")
        #: The fresh descriptor of this node that ends every shuffle request.
        self._fresh_self = ((owner.node_id, 0),)

    # ----------------------------------------------------------- bootstrap

    def bootstrap(self, seeds: Sequence[str]) -> None:
        """Fill the view with initial contacts."""
        for seed in seeds:
            self.view.add((seed, 0))

    # ---------------------------------------------------------------- round

    def on_round(self) -> None:
        """Perform one shuffle with the oldest known peer."""
        view = self.view
        view.age_all()
        target = view.oldest_id()
        if target is None:
            return
        # The target's descriptor is removed optimistically; it comes back
        # fresh if the target answers, and stays out if it is dead.
        view.remove(target)
        subset = view.sample_descriptors(self._rng, self.shuffle_size - 1)
        offered = tuple(subset) + self._fresh_self
        self._pending_sent = (target, offered)
        self.shuffles_initiated += 1
        self.send(target, SHUFFLE_REQUEST, ShufflePayload(offered), len(offered))

    # ------------------------------------------------------------- messages

    def handle(self, message: Message) -> bool:
        if message.kind == SHUFFLE_REQUEST:
            self._handle_request(message)
            return True
        if message.kind == SHUFFLE_REPLY:
            self._handle_reply(message)
            return True
        return False

    def _handle_request(self, message: Message) -> None:
        payload: ShufflePayload = message.payload
        answer = tuple(self.view.sample_descriptors(self._rng, self.shuffle_size))
        self.shuffles_answered += 1
        self.send(message.sender, SHUFFLE_REPLY, ShufflePayload(answer), max(len(answer), 1))
        self.view.merge(payload.descriptors, answer)

    def _handle_reply(self, message: Message) -> None:
        payload: ShufflePayload = message.payload
        sent: Tuple[Descriptor, ...] = ()
        if self._pending_sent is not None and self._pending_sent[0] == message.sender:
            sent = self._pending_sent[1]
            self._pending_sent = None
        self.view.merge(payload.descriptors, sent)

    # -------------------------------------------------------------- queries

    def select_partners(
        self, count: int, rng: random.Random, exclude: Iterable[str] = ()
    ) -> List[str]:
        return self.view.sample(rng, count, exclude=exclude)

    def known_peers(self) -> List[str]:
        return self.view.node_ids()


def cyclon_provider(view_size: int = 20, shuffle_size: int = 5):
    """Return a provider building :class:`CyclonMembership` components."""

    def provider(owner: Process) -> CyclonMembership:
        return CyclonMembership(owner, view_size=view_size, shuffle_size=shuffle_size)

    return provider
