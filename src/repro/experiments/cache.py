"""Content-addressed on-disk cache for experiment results.

Every :class:`~repro.experiments.config.ExperimentConfig` hashes to a stable
key (:func:`config_hash`), and a finished
:class:`~repro.experiments.runner.ExperimentResult` is stored as canonical
JSON under that key.  Because experiments are deterministic functions of
their config (see ``docs/ARCHITECTURE.md``), a cache hit is
indistinguishable from a recomputation — so repeated sweeps, benchmark
re-runs, and CLI invocations skip every already-computed grid point.

Key scheme
----------
``sha256("repro-result:v{SCHEMA}:{code_version}:" + canonical_json(config.to_dict()))``
where canonical JSON uses sorted keys and no whitespace.  The hash covers
*every* config field, including ``name``: the name feeds into table rows and
the fairness summary, so two configs differing only by name produce
different artifacts.  It also covers the package version
(``repro.__version__``), so upgrading to a release with different numeric
behavior orphans old artifacts instead of silently mixing old- and new-code
numbers in one table.  Artifacts live at ``<dir>/<hash[:2]>/<hash>.json``
to keep directories small.

The cache directory defaults to ``.repro-cache`` under the current working
directory and can be overridden with the ``REPRO_CACHE_DIR`` environment
variable or explicitly in code / via the CLI's ``--cache-dir``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Sequence, Tuple

from .. import __version__ as _CODE_VERSION
from ..jsonio import write_json
from ..telemetry import Telemetry
from .config import ExperimentConfig
from .runner import ExperimentResult

__all__ = [
    "ARTIFACT_SCHEMA",
    "results_artifact",
    "DEFAULT_CACHE_DIR",
    "config_hash",
    "CacheStats",
    "ResultCache",
]

_logger = logging.getLogger(__name__)

#: Version of the on-disk artifact layout; bump when ``to_dict`` output
#: changes incompatibly.  Old artifacts then simply stop matching and are
#: recomputed.
ARTIFACT_SCHEMA = 1


def results_artifact(results: Sequence[ExperimentResult]) -> Dict[str, object]:
    """The ``--json`` results artifact (also written beside each campaign target)."""
    return {"schema": ARTIFACT_SCHEMA, "results": [result.to_dict() for result in results]}

#: Directory used when neither the constructor nor ``REPRO_CACHE_DIR`` says
#: otherwise.
DEFAULT_CACHE_DIR = ".repro-cache"


def config_hash(config: ExperimentConfig) -> str:
    """Stable content hash of a config plus the code version (the cache key)."""
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    tagged = f"repro-result:v{ARTIFACT_SCHEMA}:{_CODE_VERSION}:{canonical}"
    return hashlib.sha256(tagged.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Running counters of one :class:`ResultCache` instance.

    ``corrupt`` counts entries that existed on disk but failed to parse or
    decode — each one is logged, treated as a miss, and overwritten by the
    next store; the campaign manifest records the count as the
    ``cache.corrupt`` telemetry counter does for live telemetry.
    """

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    stores: int = 0


class ResultCache:
    """Load and store experiment results keyed by config hash.

    The cache is safe against corrupt or stale files: anything that fails to
    parse or fails the schema check reads as a miss and is overwritten by the
    next store.  A *corrupt* entry (the file exists but is truncated or
    undecodable) is additionally counted in ``stats.corrupt``, logged, and
    recorded as a ``cache.corrupt`` counter in the
    :class:`~repro.telemetry.Telemetry` store (a private one unless the
    owner attaches its own via ``telemetry=``).  Writes are
    atomic (temp file + rename) so two processes of a parallel sweep racing
    on the same point cannot leave a torn artifact.

    Every stored entry carries a ``provenance`` block (the config dict, the
    package version, and a creation timestamp) alongside the result payload,
    so campaign manifests and ``repro campaign status`` can attribute cache
    contents without re-hashing anything.
    """

    def __init__(self, directory: Optional[str] = None, telemetry=None) -> None:
        resolved = directory or os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
        self.directory = Path(resolved)
        self.stats = CacheStats()
        self.telemetry = telemetry if telemetry is not None else Telemetry()

    def path_for(self, config: ExperimentConfig) -> Path:
        """Artifact path a result for ``config`` would be stored at."""
        key = config_hash(config)
        return self.directory / key[:2] / f"{key}.json"

    def _read(self, path: Path, count: bool = True) -> Optional[dict]:
        """Parse one entry; ``None`` on miss, counting corruption as a miss."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            if count:
                self.stats.misses += 1
            return None
        except (OSError, ValueError) as error:
            if count:
                self._corrupt(path, error)
            return None
        if not isinstance(payload, dict):
            if count:
                self._corrupt(path, "not a JSON object")
            return None
        if payload.get("schema") != ARTIFACT_SCHEMA:
            # A different schema is a deliberate layout change, not damage:
            # the entry simply no longer matches and will be recomputed.
            if count:
                self.stats.misses += 1
            return None
        return payload

    def _corrupt(self, path: Path, reason: object) -> None:
        self.stats.corrupt += 1
        self.stats.misses += 1
        _logger.warning("cache entry %s is corrupt (%s); treating as a miss", path, reason)
        self.telemetry.increment("cache.corrupt")

    def load(self, config: ExperimentConfig) -> Optional[ExperimentResult]:
        """Return the cached result for ``config``, or ``None`` on a miss."""
        path = self.path_for(config)
        payload = self._read(path)
        if payload is None:
            return None
        try:
            result = ExperimentResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            self._corrupt(path, f"failed to decode: {error}")
            return None
        self.stats.hits += 1
        return result

    def fresh(self, config: ExperimentConfig) -> bool:
        """Whether a loadable entry for ``config`` exists (no stats counted).

        This is the campaign layer's staleness probe: it parses the entry
        (so truncated files read as stale) without decoding the result or
        touching hit/miss accounting.
        """
        return self._read(self.path_for(config), count=False) is not None

    def provenance(self, config: ExperimentConfig) -> Optional[Dict[str, object]]:
        """The stored entry's provenance block, or ``None``.

        Entries written before provenance existed load fine but report no
        provenance; :meth:`load`'s hit/miss/corrupt accounting is not
        touched by this read-only peek.
        """
        return self._provenance(self.path_for(config))

    def _provenance(self, path: Path) -> Optional[Dict[str, object]]:
        payload = self._read(path, count=False)
        provenance = payload.get("provenance") if payload is not None else None
        return provenance if isinstance(provenance, dict) else None

    def scan_provenance(self) -> Iterator[Tuple[Path, Optional[Dict[str, object]]]]:
        """Yield ``(path, provenance)`` for every artifact on disk.

        ``provenance`` is ``None`` for entries :meth:`load` would not read
        (unreadable, another schema) and for entries written before
        provenance recording; ``repro campaign status`` uses this to flag
        entries from older package versions.
        """
        if not self.directory.is_dir():
            return
        for path in sorted(self.directory.glob("*/*.json")):
            yield path, self._provenance(path)

    def store(self, result: ExperimentResult) -> Path:
        """Persist ``result`` and return the artifact path."""
        path = self.path_for(result.config)
        payload = {
            "schema": ARTIFACT_SCHEMA,
            "config_hash": config_hash(result.config),
            "result": result.to_dict(),
            "provenance": {
                "config": result.config.to_dict(),
                "version": _CODE_VERSION,
                "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            },
        }
        self.stats.stores += 1
        write_json(path, payload)
        return path
