"""Post-run analysis: fairness summaries, reliability/latency, text tables."""

from .._exports import lazy_exports

_EXPORTS = {
    "NodeFairnessRow": ".fairness_report",
    "SystemFairnessSummary": ".fairness_report",
    "summarise_fairness": ".fairness_report",
    "publish_fairness_gauges": ".fairness_report",
    "fairness_table_from_snapshot": ".fairness_report",
    "compare_systems": ".fairness_report",
    "EventReliability": ".reliability",
    "ReliabilityReport": ".reliability",
    "measure_reliability": ".reliability",
    "Table": ".tables",
    "format_table": ".tables",
    "format_mapping": ".tables",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
