"""Content-addressed result cache.

Each completed trial row is stored as one JSON file under a cache root,
named by the trial's content address (see :meth:`TrialSpec.key`): the
sha256 of spec + seed + code-version salt.  Re-running a sweep against
the same cache directory therefore executes only the cells whose
addresses are missing — edits to a grid, extra seeds, or a crash leave
all previously measured cells warm.

Writes are atomic (temp file + ``os.replace``) so a killed process never
leaves a torn entry; a corrupt or unreadable entry is treated as a miss
and overwritten on the next run.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Optional

from .specs import CODE_VERSION_SALT, TrialSpec

__all__ = ["CacheStats", "ResultCache"]


@dataclass
class CacheStats:
    """Hit/miss/write accounting for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes}


class ResultCache:
    """Disk cache of trial rows keyed by content address.

    Parameters
    ----------
    root:
        Cache directory (created on first write).  Entries live two
        levels deep (``root/ab/ab12…ef.json``) to keep directories small
        on big sweeps.
    salt:
        Code-version salt mixed into every key; changing it orphans all
        existing entries without deleting them.
    """

    def __init__(self, root: str, salt: str = CODE_VERSION_SALT) -> None:
        self.root = str(root)
        self.salt = salt
        self.stats = CacheStats()

    # -- keying ------------------------------------------------------------

    def key(self, spec: TrialSpec, seed: int) -> str:
        """Content address of (spec, seed) under this cache's salt."""
        return spec.key(seed, salt=self.salt)

    def path(self, key: str) -> str:
        """Filesystem path of a cache entry."""
        return os.path.join(self.root, key[:2], key + ".json")

    # -- access ------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached row for *key*, or ``None`` (counted as hit/miss)."""
        try:
            with open(self.path(key), "r", encoding="utf-8") as fh:
                row = json.load(fh)
        except (OSError, json.JSONDecodeError):
            self.stats.misses += 1
            return None
        if not isinstance(row, dict):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return row

    def put(self, key: str, row: Dict[str, Any]) -> None:
        """Store *row* under *key* atomically."""
        path = self.path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(row, fh, default=str)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.writes += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultCache(root={self.root!r}, salt={self.salt!r}, "
                f"stats={self.stats.as_dict()})")
