"""Membership service interfaces.

A membership service answers one question for a dissemination protocol:
*which peers may I gossip with right now?*  The paper's Figure 4 calls this
``SELECTPARTICIPANTS(F)``.  Two flavours exist in this repository:

* an **oracle** (:mod:`repro.membership.full`) with global knowledge of the
  alive nodes — convenient for experiments that want to isolate the
  dissemination layer from membership noise;
* **gossip-based peer sampling** (:mod:`repro.membership.cyclon`,
  :mod:`repro.membership.lpbcast`) where each node maintains a partial view
  refreshed by exchanging descriptors over the simulated network, as in the
  protocols referenced by §4.2.

Both are exposed through the same :class:`MembershipComponent` interface so
protocols can swap one for the other without code changes, and the
:class:`MembershipProvider` factory builds one component per node.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Optional, Protocol, Sequence

from ..sim.network import Message
from ..sim.node import Process

__all__ = ["MembershipComponent", "MembershipProvider"]


class MembershipComponent:
    """Per-node membership state and behaviour.

    The owning process must:

    * carry a ``ledger`` (a :class:`~repro.core.accounting.WorkLedger`), to
      which every message the component sends is charged as infrastructure
      work (:meth:`send`);
    * call :meth:`on_round` once per gossip round (before selecting targets);
    * offer every incoming message to :meth:`handle` and skip its own
      processing when the component consumes it;
    * use :meth:`select_partners` to pick gossip targets.
    """

    #: Prefix of message kinds owned by membership components.
    MESSAGE_PREFIX = "membership."

    def __init__(self, owner: Process) -> None:
        self.owner = owner

    def send(self, recipient: str, kind: str, payload: object, size: int) -> None:
        """Send one of this component's messages from its owner.

        §2 counts maintenance messages in a process's contribution, so a
        message the network accepts is charged to the owner's ledger as one
        infrastructure message.
        """
        owner = self.owner
        if owner.send(recipient, kind, payload, size) is not None:
            owner.ledger.record_infrastructure(owner.node_id)

    def bootstrap(self, seeds: Sequence[str]) -> None:
        """Seed the component with initial contacts (used at join time)."""

    def on_round(self) -> None:
        """Advance the membership protocol by one round (may send messages)."""

    def handle(self, message: Message) -> bool:
        """Process a membership message; return ``True`` if it was consumed."""
        return False

    def select_partners(
        self, count: int, rng: random.Random, exclude: Iterable[str] = ()
    ) -> List[str]:
        """Return up to ``count`` distinct peer ids to gossip with."""
        raise NotImplementedError

    def known_peers(self) -> List[str]:
        """All peers currently known to this component (sorted)."""
        raise NotImplementedError

    def notify_left(self, node_id: str) -> None:
        """Hint that ``node_id`` is suspected dead (e.g. a send failed)."""


#: Factory signature: given the owning process, build its membership component.
MembershipProvider = Callable[[Process], MembershipComponent]
