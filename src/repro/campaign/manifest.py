"""Run manifests: per-target provenance of one campaign execution.

The executor writes ``manifest.json`` into the campaign's output directory
after every run.  The manifest is split into a *canonical* part and a
*timing* part:

* the canonical part (campaign name, package version, per-service point
  hashes with cached/computed flags and cache-entry provenance, per-target
  inputs/outputs, cache totals) is a deterministic function of the spec and
  the cache state — two warm runs of the same campaign produce
  byte-identical canonical JSON, which the incremental-re-run tests pin;
* the timing part (wall-clock seconds, per-service elapsed time, planning
  waves) is measured and therefore excluded from :meth:`RunManifest.canonical_json`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..jsonio import write_json

__all__ = ["MANIFEST_SCHEMA", "PointRecord", "ServiceRecord", "TargetRecord", "RunManifest"]

#: Schema tag of the manifest layout; ``repro report`` sniffs on it.
MANIFEST_SCHEMA = "campaign-manifest/v1"


@dataclass(frozen=True)
class PointRecord:
    """One grid point of one service: identity plus cache provenance."""

    name: str
    config_hash: str
    cached: bool
    #: ``version``/``created_at`` of the cache entry serving this point
    #: (read back from the entry's provenance block; absent for entries
    #: written before provenance recording existed).
    provenance: Tuple[Tuple[str, object], ...] = ()

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "config_hash": self.config_hash,
            "cached": self.cached,
        }
        if self.provenance:
            payload["provenance"] = dict(self.provenance)
        return payload


@dataclass
class ServiceRecord:
    """What happened to one service: status plus per-point outcomes."""

    name: str
    status: str  # "done" | "failed" | "skipped" | "pending"
    points: List[PointRecord] = field(default_factory=list)
    error: str = ""
    elapsed_seconds: float = 0.0

    @property
    def cache_hits(self) -> int:
        return sum(1 for point in self.points if point.cached)

    @property
    def computed(self) -> int:
        return sum(1 for point in self.points if not point.cached)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "status": self.status,
            "points": [point.to_dict() for point in self.points],
            "cache_hits": self.cache_hits,
            "computed": self.computed,
        }
        if self.error:
            payload["error"] = self.error
        return payload


@dataclass
class TargetRecord:
    """What happened to one target: the inputs used and artifacts written."""

    name: str
    status: str  # "done" | "failed" | "skipped" | "pending"
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    config_hashes: List[str] = field(default_factory=list)
    error: str = ""

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "status": self.status,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "config_hashes": list(self.config_hashes),
        }
        if self.error:
            payload["error"] = self.error
        return payload


@dataclass
class RunManifest:
    """Everything one campaign execution did, JSON-round-trippable."""

    campaign: str
    version: str
    services: Dict[str, ServiceRecord] = field(default_factory=dict)
    targets: Dict[str, TargetRecord] = field(default_factory=dict)
    cache_stats: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    waves: int = 0

    def totals(self) -> Dict[str, int]:
        done = [record for record in self.services.values() if record.status == "done"]
        return {
            "services": len(self.services),
            "targets": len(self.targets),
            "points": sum(len(record.points) for record in done),
            "cache_hits": sum(record.cache_hits for record in done),
            "computed": sum(record.computed for record in done),
        }

    def canonical_dict(self) -> Dict[str, object]:
        """The deterministic part (no timing): what the pinned tests hash."""
        return {
            "schema": MANIFEST_SCHEMA,
            "campaign": self.campaign,
            "version": self.version,
            "totals": self.totals(),
            "cache": dict(self.cache_stats),
            "services": {
                name: record.to_dict() for name, record in self.services.items()
            },
            "targets": {
                name: record.to_dict() for name, record in self.targets.items()
            },
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, indent=2)

    def to_dict(self) -> Dict[str, object]:
        payload = self.canonical_dict()
        payload["timing"] = {
            "wall_seconds": self.wall_seconds,
            "waves": self.waves,
            "services": {
                name: record.elapsed_seconds
                for name, record in self.services.items()
                if record.status == "done"
            },
        }
        return payload

    def write(self, path: str) -> None:
        write_json(path, self.to_dict())

    def describe(self) -> str:
        """The one-line summary the CLI prints after a run."""
        totals = self.totals()
        corrupt = self.cache_stats.get("corrupt", 0)
        line = (
            f"campaign {self.campaign}: {totals['targets']} target(s), "
            f"{totals['points']} point(s) | cache hits: {totals['cache_hits']} | "
            f"computed: {totals['computed']} | waves: {self.waves} | "
            f"elapsed: {self.wall_seconds:.2f}s"
        )
        if corrupt:
            line += f" | corrupt cache entries: {corrupt}"
        return line
