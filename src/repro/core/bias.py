"""Bias and selfishness detection (challenge 6 of §5.2).

The paper asks: *"Can we ensure that a peer does not artificially grow its
contribution by biasing the selection of peers (i.e., biasing the fanout) or
the selection of events (i.e., biasing the gossip message size)?"*

A peer can game a contribution-counting fairness scheme by sending many
messages that are *useless*: gossiping stale events everybody already has, or
always gossiping to the same colluding peers.  Both inflate the sender's
message count without helping dissemination.

The defence implemented here is receiver-side auditing:

* every receiver reports, per sender, how many of the events in each gossip
  message were *new* to it (:class:`ForwardAudit` — in a deployment these
  reports would be gossiped or sampled; in the simulator they are collected
  centrally, which is equivalent for evaluating the detector);
* :class:`BiasDetector` compares each sender's *useful-forward ratio* and
  target diversity against the population and flags outliers;
* :class:`SelfishGossipNode` is the attacker model used by benchmark C5 —
  it biases event selection towards stale events and peer selection towards
  a fixed set of colluders, exactly the two behaviours named by the paper.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..gossip.push import PushGossipNode
from ..telemetry import Telemetry
from .fairness import gini_coefficient

__all__ = ["ForwardAudit", "BiasFinding", "BiasReport", "BiasDetector", "SelfishGossipNode"]


@dataclass
class _SenderRecord:
    messages: int = 0
    events_total: int = 0
    events_new: int = 0
    recipients: Dict[str, int] = field(default_factory=dict)


class ForwardAudit:
    """Receiver-side record of how useful each sender's forwards were."""

    def __init__(self) -> None:
        self._by_sender: Dict[str, _SenderRecord] = defaultdict(_SenderRecord)
        self._current_receiver: Optional[str] = None

    def observe(self, sender: str, new_events: int, total_events: int, receiver: str = "") -> None:
        """Record one received gossip message from ``sender``.

        ``new_events`` is how many of the carried events the receiver had not
        seen before; ``total_events`` is the message payload size.
        """
        if total_events <= 0:
            return
        record = self._by_sender[sender]
        record.messages += 1
        record.events_total += total_events
        record.events_new += min(new_events, total_events)
        if receiver:
            record.recipients[receiver] = record.recipients.get(receiver, 0) + 1

    def useful_ratio(self, sender: str) -> float:
        """Fraction of the sender's forwarded events that were new to receivers."""
        record = self._by_sender.get(sender)
        if record is None or record.events_total == 0:
            return 1.0
        return record.events_new / record.events_total

    def recipient_concentration(self, sender: str) -> float:
        """Gini coefficient of the sender's messages over distinct recipients.

        0 means the sender spreads its messages evenly (unbiased target
        selection); values near 1 mean nearly all messages went to a handful
        of recipients, the signature of collusion-style target bias.  Senders
        observed by fewer than two distinct recipients return 0 (no evidence).
        """
        record = self._by_sender.get(sender)
        if record is None or len(record.recipients) < 2:
            return 0.0
        return gini_coefficient(record.recipients.values())

    def senders(self) -> List[str]:
        """All senders with at least one audited message, sorted."""
        return sorted(self._by_sender)

    def message_count(self, sender: str) -> int:
        """Number of audited messages from ``sender``."""
        record = self._by_sender.get(sender)
        return record.messages if record is not None else 0


@dataclass(frozen=True)
class BiasFinding:
    """Verdict for a single node."""

    node_id: str
    useful_ratio: float
    recipient_concentration: float
    messages_audited: int
    flagged: bool
    reasons: Tuple[str, ...] = ()


@dataclass(frozen=True)
class BiasReport:
    """Detector output over the whole population."""

    findings: Dict[str, BiasFinding]
    median_useful_ratio: float

    def flagged_nodes(self) -> List[str]:
        """Ids of nodes the detector flagged, sorted."""
        return sorted(node_id for node_id, finding in self.findings.items() if finding.flagged)

    def precision_recall(self, true_selfish: Iterable[str]) -> Tuple[float, float]:
        """Detector precision and recall against ground truth (for benchmarks)."""
        truth = set(true_selfish)
        flagged = set(self.flagged_nodes())
        if not flagged:
            precision = 1.0 if not truth else 0.0
        else:
            precision = len(flagged & truth) / len(flagged)
        recall = 1.0 if not truth else len(flagged & truth) / len(truth)
        return precision, recall


class BiasDetector:
    """Flags nodes whose forwarding behaviour looks self-serving.

    Parameters
    ----------
    useful_ratio_threshold:
        A node is suspicious when its useful-forward ratio falls below this
        fraction of the population median.
    concentration_threshold:
        A node is suspicious when the Gini concentration of its recipients
        exceeds this absolute value.
    min_messages:
        Nodes with fewer audited messages than this are never flagged (not
        enough evidence).
    """

    def __init__(
        self,
        useful_ratio_threshold: float = 0.5,
        concentration_threshold: float = 0.6,
        min_messages: int = 10,
    ) -> None:
        if not 0.0 < useful_ratio_threshold <= 1.0:
            raise ValueError("useful_ratio_threshold must be within (0, 1]")
        if not 0.0 <= concentration_threshold <= 1.0:
            raise ValueError("concentration_threshold must be within [0, 1]")
        self.useful_ratio_threshold = useful_ratio_threshold
        self.concentration_threshold = concentration_threshold
        self.min_messages = min_messages

    def analyse(self, audit: ForwardAudit, telemetry: Optional[Telemetry] = None) -> BiasReport:
        """Run the detector over an audit and return per-node findings.

        The verdicts are also published to ``telemetry`` (a throwaway store
        when none is given) as node-tagged gauges (``bias.useful_ratio``,
        ``bias.flagged``) plus the aggregate ``bias.flagged_nodes``, so
        periodic snapshots show the detector's view evolving during a run.
        """
        telemetry = telemetry if telemetry is not None else Telemetry()
        senders = audit.senders()
        ratios = sorted(audit.useful_ratio(sender) for sender in senders)
        median_ratio = ratios[len(ratios) // 2] if ratios else 1.0
        findings: Dict[str, BiasFinding] = {}
        for sender in senders:
            useful = audit.useful_ratio(sender)
            concentration = audit.recipient_concentration(sender)
            messages = audit.message_count(sender)
            reasons: List[str] = []
            if messages >= self.min_messages:
                if median_ratio > 0 and useful < self.useful_ratio_threshold * median_ratio:
                    reasons.append("stale-event bias")
                if concentration > self.concentration_threshold:
                    reasons.append("target-selection bias")
            findings[sender] = BiasFinding(
                node_id=sender,
                useful_ratio=useful,
                recipient_concentration=concentration,
                messages_audited=messages,
                flagged=bool(reasons),
                reasons=tuple(reasons),
            )
        report = BiasReport(findings=findings, median_useful_ratio=median_ratio)
        telemetry.set_gauge("bias.median_useful_ratio", median_ratio)
        telemetry.set_gauge("bias.flagged_nodes", len(report.flagged_nodes()))
        for sender in senders:
            finding = findings[sender]
            telemetry.set_gauge("bias.useful_ratio", finding.useful_ratio, node=sender)
            telemetry.set_gauge("bias.flagged", 1.0 if finding.flagged else 0.0, node=sender)
        return report


class SelfishGossipNode(PushGossipNode):
    """Attacker model: inflates contribution without helping dissemination.

    The node always forwards its *stalest* buffered events (which most peers
    already have) and, when it has colluders configured, sends most of its
    gossip messages to them instead of to uniformly chosen peers.  Its message
    count — the naive contribution measure — looks as good as or better than
    an honest node's, which is precisely the attack the paper warns about.
    """

    def __init__(self, *args, colluders: Sequence[str] = (), collusion_bias: float = 0.8, **kwargs) -> None:
        kwargs.setdefault("selection_strategy", "oldest")
        super().__init__(*args, **kwargs)
        if not 0.0 <= collusion_bias <= 1.0:
            raise ValueError("collusion_bias must be within [0, 1]")
        self.colluders = [peer for peer in colluders if peer != self.node_id]
        self.collusion_bias = collusion_bias

    def select_participants(self, fanout: int, rng) -> List[str]:
        if not self.colluders:
            return super().select_participants(fanout, rng)
        biased_quota = int(round(fanout * self.collusion_bias))
        biased = self.colluders[:biased_quota]
        remaining = fanout - len(biased)
        uniform = (
            super().select_participants(remaining + len(biased), rng) if remaining > 0 else []
        )
        filler = [peer for peer in uniform if peer not in biased][:remaining]
        return biased + filler
