"""Content-addressed result cache.

Each completed trial row is stored as one JSON file under a cache root,
named by the trial's content address (see :meth:`TrialSpec.key`): the
sha256 of spec + seed + code-version salt.  Re-running a sweep against
the same cache directory therefore executes only the cells whose
addresses are missing — edits to a grid, extra seeds, or a crash leave
all previously measured cells warm.

Each entry stores its own key and the sha256 of the row's JSON next to
the row, so an entry filed under the wrong name, edited by hand, or
written in an older format is a miss rather than a trusted row.  Writes
are atomic (temp file + ``os.replace``) so a killed process never leaves
a torn entry; a corrupt, unreadable or unverifiable entry is treated as
a miss and overwritten on the next run.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["CacheStats", "ResultCache"]


def _digest(row: Dict[str, Any]) -> str:
    """sha256 of the row's JSON as stored (equal again once reloaded)."""
    text = json.dumps(row, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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

    Keys are :meth:`~repro.exec.specs.TrialSpec.key` content addresses,
    which mix in :data:`~repro.exec.specs.CODE_VERSION_SALT`; bumping it
    orphans all existing entries without deleting them.
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)
        self.stats = CacheStats()

    def path(self, key: str) -> str:
        """Filesystem path of a cache entry."""
        return os.path.join(self.root, key[:2], key + ".json")

    # -- access ------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached row for *key*, or ``None`` (counted as hit/miss).

        An entry whose stored key is not *key* or whose row does not
        match its stored digest is a miss, as is an unreadable one.
        """
        try:
            with open(self.path(key), "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError):
            entry = None
        row = entry.get("row") if isinstance(entry, dict) else None
        if (not isinstance(row, dict) or entry.get("key") != key
                or entry.get("sha256") != _digest(row)):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return row

    def put(self, key: str, row: Dict[str, Any]) -> None:
        """Store *row* under *key* atomically, with the key and the
        row's digest."""
        entry = {"key": key, "sha256": _digest(row), "row": row}
        path = self.path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, default=str)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.writes += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultCache(root={self.root!r}, "
                f"stats={self.stats.as_dict()})")
