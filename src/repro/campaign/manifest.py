"""Run manifests: per-target provenance of one campaign execution.

The executor writes ``manifest.json`` into the campaign's output directory
after every run.  The manifest is split into a *canonical* part and a
*timing* part:

* the canonical part (campaign name, package version, per-service point
  hashes with cached/computed flags and cache-entry provenance, per-target
  inputs/outputs, cache counters) is a deterministic function of the spec
  and the cache state — two warm runs of the same campaign produce
  byte-identical canonical JSON, which the incremental-re-run tests pin;
* the timing part (wall-clock seconds, per-service elapsed time) is
  measured and therefore left out when two runs are compared.

Both parts are the :func:`~repro.jsonio.encode` form of the records below,
and :func:`~repro.jsonio.decode` reads them back; totals and per-service
hit counts are derived, not stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..jsonio import encode, write_json

__all__ = [
    "MANIFEST_SCHEMA",
    "PointRecord",
    "ServiceRecord",
    "TargetRecord",
    "RunTiming",
    "RunManifest",
]

#: Schema tag of the manifest layout; ``repro report`` reads by it.
MANIFEST_SCHEMA = "campaign-manifest/v3"


@dataclass(frozen=True)
class PointRecord:
    """One grid point of one service: identity plus cache provenance."""

    name: str
    config_hash: str
    cached: bool
    #: ``version``/``created_at`` of the cache entry serving this point
    #: (read back from the entry's provenance block; empty for entries
    #: written before provenance recording existed).
    provenance: Dict[str, object] = field(default_factory=dict)


@dataclass
class ServiceRecord:
    """What happened to one service: status plus per-point outcomes."""

    status: str  # "done" | "failed" | "skipped"
    points: List[PointRecord] = field(default_factory=list)
    error: str = ""

    @property
    def cache_hits(self) -> int:
        return sum(1 for point in self.points if point.cached)

    @property
    def computed(self) -> int:
        return sum(1 for point in self.points if not point.cached)


@dataclass
class TargetRecord:
    """What happened to one target: the inputs used and artifacts written."""

    status: str  # "done" | "failed" | "skipped"
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    config_hashes: List[str] = field(default_factory=list)
    error: str = ""


@dataclass
class RunTiming:
    """The measured part of a run: left out when two runs are compared."""

    wall_seconds: float = 0.0
    #: Elapsed seconds of every service that ran.
    services: Dict[str, float] = field(default_factory=dict)


@dataclass
class RunManifest:
    """Everything one campaign execution did; services and targets by name."""

    campaign: str
    version: str
    services: Dict[str, ServiceRecord] = field(default_factory=dict)
    targets: Dict[str, TargetRecord] = field(default_factory=dict)
    cache_stats: Dict[str, int] = field(default_factory=dict)
    timing: RunTiming = field(default_factory=RunTiming)

    def totals(self) -> Dict[str, int]:
        done = [record for record in self.services.values() if record.status == "done"]
        return {
            "services": len(self.services),
            "targets": len(self.targets),
            "points": sum(len(record.points) for record in done),
            "cache_hits": sum(record.cache_hits for record in done),
            "computed": sum(record.computed for record in done),
        }

    def to_dict(self) -> Dict[str, object]:
        return {"schema": MANIFEST_SCHEMA, **encode(self)}

    def write(self, path: str) -> None:
        write_json(path, self.to_dict())

    def describe(self) -> str:
        """The one-line summary the CLI prints after a run."""
        totals = self.totals()
        corrupt = self.cache_stats.get("corrupt", 0)
        line = (
            f"campaign {self.campaign}: {totals['targets']} target(s), "
            f"{totals['points']} point(s) | cache hits: {totals['cache_hits']} | "
            f"computed: {totals['computed']} | "
            f"elapsed: {self.timing.wall_seconds:.2f}s"
        )
        if corrupt:
            line += f" | corrupt cache entries: {corrupt}"
        return line
