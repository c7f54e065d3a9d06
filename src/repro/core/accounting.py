"""Work/benefit accounting — the ledger behind Figures 1–3.

The paper quantifies *contribution* as the number of messages a process
publishes or forwards (application **and** infrastructure messages, §2), and
*benefit* as the number of interesting events the process delivers plus, for
topic-based selection, the number of filters it has placed (Figure 2).  For
expressive selection the contribution is additionally modulated by the
fanout and the gossip message size (Figure 3).

:class:`WorkLedger` records the raw quantities per node; how they are folded
into scalar contribution and benefit values is delegated to
:class:`ContributionWeights` / :class:`BenefitWeights` so the fairness policy
(:mod:`repro.core.policy`) can switch between the paper's topic-based and
expressive formulas without touching the protocols that do the recording.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

__all__ = [
    "NodeAccount",
    "ContributionWeights",
    "BenefitWeights",
    "WorkLedger",
]


@dataclass
class NodeAccount:
    """Raw per-node counters.

    All quantities are cumulative since the start of the run.
    """

    node_id: str
    events_published: int = 0
    gossip_messages_sent: int = 0
    events_forwarded: int = 0
    bytes_forwarded: int = 0
    infrastructure_messages: int = 0
    subscription_forwards: int = 0
    events_delivered: int = 0
    filters_placed: int = 0
    subscribe_operations: int = 0
    unsubscribe_operations: int = 0
    crashes: int = 0


@dataclass(frozen=True)
class ContributionWeights:
    """How raw counters combine into the scalar *contribution*.

    The defaults implement the paper's definition: one unit per message the
    node published or forwarded, including infrastructure messages.  Setting
    ``per_event_forwarded`` or ``per_byte`` non-zero weighs large gossip
    messages more, which is the Figure 3 "message size" modulation.
    """

    per_publish: float = 1.0
    per_gossip_message: float = 1.0
    per_event_forwarded: float = 0.0
    per_byte: float = 0.0
    per_infrastructure_message: float = 1.0
    per_subscription_forward: float = 1.0

    def contribution(self, account: NodeAccount) -> float:
        """Scalar contribution of a node under these weights."""
        return (
            self.per_publish * account.events_published
            + self.per_gossip_message * account.gossip_messages_sent
            + self.per_event_forwarded * account.events_forwarded
            + self.per_byte * account.bytes_forwarded
            + self.per_infrastructure_message * account.infrastructure_messages
            + self.per_subscription_forward * account.subscription_forwards
        )


@dataclass(frozen=True)
class BenefitWeights:
    """How raw counters combine into the scalar *benefit*.

    Figure 2 (topic-based): benefit = delivered events and placed filters.
    Figure 3 (expressive): benefit = delivered events only, which is the
    default here (``per_filter=0``).
    """

    per_delivery: float = 1.0
    per_filter: float = 0.0
    baseline: float = 0.0

    def benefit(self, account: NodeAccount) -> float:
        """Scalar benefit of a node under these weights."""
        return (
            self.baseline
            + self.per_delivery * account.events_delivered
            + self.per_filter * account.filters_placed
        )


class WorkLedger:
    """System-wide accounting of work and benefit.

    Protocol code calls the ``record_*`` methods; analysis code and the
    adaptive controllers read via :meth:`account` and the
    aggregate helpers.  The ledger itself never interprets the counters —
    interpretation lives in the weight objects and the fairness policy.
    """

    def __init__(self) -> None:
        self._accounts: Dict[str, NodeAccount] = {}

    def _get(self, node_id: str) -> NodeAccount:
        account = self._accounts.get(node_id)
        if account is None:
            account = NodeAccount(node_id=node_id)
            self._accounts[node_id] = account
        return account

    # ------------------------------------------------------------ recording

    def record_publish(self, node_id: str, events: int = 1) -> None:
        """The node published ``events`` new events."""
        self._get(node_id).events_published += events

    def record_gossip_send(self, node_id: str, messages: int = 1, events: int = 0, size: int = 0) -> None:
        """The node sent gossip messages carrying ``events`` events."""
        account = self._get(node_id)
        account.gossip_messages_sent += messages
        account.events_forwarded += events
        account.bytes_forwarded += size

    def record_infrastructure(self, node_id: str, messages: int = 1) -> None:
        """The node sent membership / maintenance messages."""
        self._get(node_id).infrastructure_messages += messages

    def record_subscription_forward(self, node_id: str, messages: int = 1) -> None:
        """The node forwarded subscribe/unsubscribe requests for others."""
        self._get(node_id).subscription_forwards += messages

    def record_delivery(self, node_id: str, events: int = 1) -> None:
        """The node delivered ``events`` interesting events."""
        self._get(node_id).events_delivered += events

    def record_subscribe(self, node_id: str) -> None:
        """The node performed a subscribe operation."""
        account = self._get(node_id)
        account.subscribe_operations += 1
        account.filters_placed += 1

    def record_unsubscribe(self, node_id: str) -> None:
        """The node performed an unsubscribe operation."""
        account = self._get(node_id)
        account.unsubscribe_operations += 1
        account.filters_placed = max(0, account.filters_placed - 1)

    def record_crash(self, node_id: str) -> None:
        """The node crashed (used for the instability penalty of §3.2)."""
        self._get(node_id).crashes += 1

    def ensure_node(self, node_id: str) -> None:
        """Make sure a node appears in reports even if it never did anything."""
        self._get(node_id)

    # -------------------------------------------------------------- queries

    def account(self, node_id: str) -> NodeAccount:
        """Raw account for one node (empty account if never touched)."""
        return self._accounts.get(node_id, NodeAccount(node_id=node_id))

    def node_ids(self) -> List[str]:
        """All nodes with an account, sorted."""
        return sorted(self._accounts)

    def contributions(self, weights: ContributionWeights) -> Dict[str, float]:
        """Per-node scalar contributions under ``weights``."""
        return {node_id: weights.contribution(account) for node_id, account in self._accounts.items()}

    def benefits(self, weights: BenefitWeights) -> Dict[str, float]:
        """Per-node scalar benefits under ``weights``."""
        return {node_id: weights.benefit(account) for node_id, account in self._accounts.items()}

    def totals(self) -> NodeAccount:
        """System-wide totals (summed over every node)."""
        total = NodeAccount(node_id="<total>")
        for account in self._accounts.values():
            total.events_published += account.events_published
            total.gossip_messages_sent += account.gossip_messages_sent
            total.events_forwarded += account.events_forwarded
            total.bytes_forwarded += account.bytes_forwarded
            total.infrastructure_messages += account.infrastructure_messages
            total.subscription_forwards += account.subscription_forwards
            total.events_delivered += account.events_delivered
            total.filters_placed += account.filters_placed
            total.subscribe_operations += account.subscribe_operations
            total.unsubscribe_operations += account.unsubscribe_operations
            total.crashes += account.crashes
        return total
