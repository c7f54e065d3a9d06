"""Dependency-driven experiment campaigns (the "make paper" layer).

A :class:`CampaignSpec` declares the paper's artifacts (*targets*) and the
experiment batches they consume (*services*), wired together with
``ALL``/``SEQ``/``ONE`` connectors and arbitrary ``after`` edges.
:func:`compile_graph` turns the spec into a topologically ordered DAG, and
:class:`CampaignExecutor` runs it incrementally: per-point staleness comes
from the content-addressed result cache, so a warm campaign re-runs
nothing and a single edited parameter re-runs exactly its downstream
points.  Every run writes a :class:`RunManifest` with per-target
provenance.  ``python -m repro campaign`` is the CLI surface.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "CAMPAIGN_SCHEMA": ".spec",
    "MANIFEST_SCHEMA": ".manifest",
    "CampaignError": ".spec",
    "CampaignExecutor": ".executor",
    "CampaignGraph": ".graph",
    "CampaignSpec": ".spec",
    "Connector": ".spec",
    "PointRecord": ".manifest",
    "RunManifest": ".manifest",
    "ServiceRecord": ".manifest",
    "ServiceSpec": ".spec",
    "TargetRecord": ".manifest",
    "TargetSpec": ".spec",
    "compile_graph": ".graph",
    "expand_service": ".executor",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
