"""Post-run analysis: fairness summaries, reliability/latency, text tables."""

from .fairness_report import (
    NodeFairnessRow,
    SystemFairnessSummary,
    compare_systems,
    fairness_table_from_snapshot,
    publish_fairness_gauges,
    summarise_fairness,
)
from .reliability import (
    EventReliability,
    ReliabilityReport,
    latency_summary_from_snapshot,
    measure_reliability,
)
from .tables import Table, format_mapping, format_table

__all__ = [
    "NodeFairnessRow",
    "SystemFairnessSummary",
    "summarise_fairness",
    "publish_fairness_gauges",
    "fairness_table_from_snapshot",
    "compare_systems",
    "EventReliability",
    "ReliabilityReport",
    "measure_reliability",
    "latency_summary_from_snapshot",
    "Table",
    "format_table",
    "format_mapping",
]
