"""End-to-end fairness reporting: from a ledger to printable tables.

Combines the accounting ledger, a fairness policy, and (optionally) the
delivery log into the quantities the paper's figures talk about: per-node
contribution, benefit, and their ratio (Figure 1), with the topic-based or
expressive weighting of Figures 2 and 3, plus the aggregate indices and the
load-balance comparison of §3.1 vs §3.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.accounting import WorkLedger
from ..core.fairness import FairnessReport, contribution_benefit_ratios, evaluate_fairness
from ..core.policy import EXPRESSIVE_POLICY, FairnessPolicy
from ..jsonio import decode, encode
from .tables import Table, format_table

__all__ = [
    "NodeFairnessRow",
    "SystemFairnessSummary",
    "summarise_fairness",
    "publish_fairness_gauges",
    "fairness_table_from_snapshot",
    "compare_systems",
]


@dataclass(frozen=True)
class NodeFairnessRow:
    """Per-node view: the row behind Figure 1's per-peer ratio."""

    node_id: str
    contribution: float
    benefit: float
    ratio: float
    filters: int
    delivered: int
    forwarded_messages: int
    crashes: int

@dataclass(frozen=True)
class SystemFairnessSummary:
    """Everything a benchmark needs to report about one run of one system."""

    system_name: str
    policy_name: str
    report: FairnessReport
    per_node: List[NodeFairnessRow]

    def top_contributors(self, count: int = 5) -> List[NodeFairnessRow]:
        """Nodes with the highest contribution (the candidates for unfairness)."""
        return sorted(self.per_node, key=lambda row: -row.contribution)[:count]

    def zero_benefit_contributors(self) -> List[NodeFairnessRow]:
        """Nodes that contribute without benefiting (Scribe's interior nodes)."""
        return [row for row in self.per_node if row.benefit <= 0 and row.contribution > 0]

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form; inverse of :meth:`from_dict`."""
        return encode(self)

    @staticmethod
    def from_dict(payload: Mapping[str, object]) -> "SystemFairnessSummary":
        """Rebuild a summary from :meth:`to_dict` output."""
        return decode(SystemFairnessSummary, payload, ValueError, "fairness summary")

    def render(self, max_rows: int = 10) -> str:
        """Printable summary: aggregate indices plus the heaviest contributors."""
        table = Table(
            ["node", "contribution", "benefit", "ratio", "filters", "delivered"],
            title=(
                f"{self.system_name} under {self.policy_name} policy — "
                f"ratio Jain {self.report.ratio_jain:.3f}, wasted share {self.report.wasted_share:.3f}"
            ),
        )
        for row in self.top_contributors(max_rows):
            table.add_row(
                node=row.node_id,
                contribution=row.contribution,
                benefit=row.benefit,
                ratio=row.ratio,
                filters=row.filters,
                delivered=row.delivered,
            )
        return table.render()


def summarise_fairness(
    ledger: WorkLedger,
    policy: FairnessPolicy = EXPRESSIVE_POLICY,
    system_name: str = "system",
) -> SystemFairnessSummary:
    """Build the full fairness summary of one run."""
    contributions = policy.contributions(ledger)
    benefits = policy.benefits(ledger)
    report = evaluate_fairness(contributions, benefits)
    per_node: List[NodeFairnessRow] = []
    for node_id in ledger.node_ids():
        account = ledger.account(node_id)
        contribution = contributions.get(node_id, 0.0)
        benefit = benefits.get(node_id, 0.0)
        per_node.append(
            NodeFairnessRow(
                node_id=node_id,
                contribution=contribution,
                benefit=benefit,
                ratio=report.ratios.get(node_id, 0.0),
                filters=account.filters_placed,
                delivered=account.events_delivered,
                forwarded_messages=account.gossip_messages_sent,
                crashes=account.crashes,
            )
        )
    return SystemFairnessSummary(
        system_name=system_name,
        policy_name=policy.name,
        report=report,
        per_node=per_node,
    )


def publish_fairness_gauges(telemetry, ledger: WorkLedger, policy: FairnessPolicy, topology=None) -> None:
    """Write the fairness view of ``ledger`` into ``telemetry``'s gauges.

    The aggregate ``fairness.ratio_jain`` / ``fairness.wasted_share`` and one
    ``node.contribution`` / ``node.benefit`` gauge per node, tagged with the
    node's domain under a multi-domain ``topology`` so ``repro report`` can
    render the per-domain table without re-deriving the assignment.  Both
    engines call this right before a snapshot is frozen (the simulator's
    collector and the live host's); :func:`fairness_table_from_snapshot` is
    the reader.  Everything is read from the ledger — no RNG draws, no
    scheduling.
    """
    contributions = policy.contributions(ledger)
    benefits = policy.benefits(ledger)
    report = evaluate_fairness(contributions, benefits)
    telemetry.set_gauge("fairness.ratio_jain", report.ratio_jain)
    telemetry.set_gauge("fairness.wasted_share", report.wasted_share)
    for name, values in (("node.contribution", contributions), ("node.benefit", benefits)):
        for node_id in sorted(values):
            tags = {"node": node_id}
            domain = topology.domain(node_id) if topology is not None else None
            if domain is not None:
                tags["domain"] = domain
            telemetry.set_gauge(name, values[node_id], **tags)


def fairness_table_from_snapshot(snapshot, max_rows: int = 10) -> Optional[Table]:
    """Per-node fairness table built from a telemetry snapshot.

    Reads the gauges :func:`publish_fairness_gauges` writes, so mid-run
    snapshots of either engine carry the same fairness view the end-of-run
    summary computes from the ledger.  Returns ``None`` when the snapshot
    carries no per-node fairness gauges (a snapshot stream some other
    program wrote).
    """
    contributions = snapshot.gauges_by_tag("node.contribution", "node")
    benefits = snapshot.gauges_by_tag("node.benefit", "node")
    if not contributions and not benefits:
        return None
    table = Table(
        ["node", "contribution", "benefit", "ratio"],
        title=(
            f"fairness at t={snapshot.at:g} — "
            f"ratio Jain {snapshot.gauge_value('fairness.ratio_jain'):.3f}, "
            f"wasted share {snapshot.gauge_value('fairness.wasted_share'):.3f}"
        ),
    )
    # Same ratio semantics as the end-of-run summary: zero-benefit
    # contributors get the finite cap (they are the exploited nodes the
    # fairness analysis is about), not a ratio of 0.
    ratios = contribution_benefit_ratios(contributions, benefits)
    nodes = sorted(ratios, key=lambda node: -contributions.get(node, 0.0))
    for node in nodes[:max_rows]:
        table.add_row(
            node=node,
            contribution=contributions.get(node, 0.0),
            benefit=benefits.get(node, 0.0),
            ratio=ratios[node],
        )
    return table


def compare_systems(
    summaries: Sequence[SystemFairnessSummary], precision: int = 3
) -> str:
    """Side-by-side comparison table across systems (the Figure 1 experiment)."""
    table = Table(
        [
            "system",
            "ratio_jain",
            "ratio_gini",
            "ratio_spread",
            "wasted_share",
            "contribution_jain",
            "mean_contribution",
            "mean_benefit",
            "exploited",
        ],
        title="Fairness comparison (higher ratio_jain and lower wasted_share is fairer; "
        "contribution_jain alone only measures load balancing)",
    )
    for summary in summaries:
        report = summary.report
        table.add_row(
            system=summary.system_name,
            ratio_jain=report.ratio_jain,
            ratio_gini=report.ratio_gini,
            ratio_spread=report.ratio_spread,
            wasted_share=report.wasted_share,
            contribution_jain=report.contribution_jain,
            mean_contribution=report.mean_contribution,
            mean_benefit=report.mean_benefit,
            exploited=report.exploited,
        )
    return table.render(precision=precision)
