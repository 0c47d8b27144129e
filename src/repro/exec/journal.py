"""Crash-safe sweep journal.

The executor appends one JSONL record per completed cell —
``{"key": <content address>, "row": <measured row>}`` — flushing after
every line, so a crash (or Ctrl-C) loses at most the trial that was in
flight.  On resume the journal is replayed and only the missing cells
execute.  A torn final line (the classic kill-mid-write artefact) is
tolerated and simply dropped.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

__all__ = ["SweepJournal"]


class SweepJournal:
    """Append-only JSONL record of completed sweep cells.

    Usable as a context manager; :meth:`load` may be called before or
    after opening for append (resume reads the previous run's lines,
    then new completions append to the same file).
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._fh = None

    # -- replay ------------------------------------------------------------

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Replay the journal: ``{content address: row}``.

        Unparseable lines (a torn tail after a crash) are skipped; later
        records for the same key win, so re-appending is harmless.
        """
        completed: Dict[str, Dict[str, Any]] = {}
        try:
            fh = open(self.path, "r", encoding="utf-8")
        except OSError:
            return completed
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail — crash mid-append
                key = record.get("key")
                row = record.get("row")
                if isinstance(key, str) and isinstance(row, dict):
                    completed[key] = row
        return completed

    # -- append ------------------------------------------------------------

    def append(self, key: str, row: Dict[str, Any]) -> None:
        """Record one completed cell; flushed immediately."""
        if self._fh is None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps({"key": key, "row": row}, default=str)
                       + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepJournal(path={self.path!r})"

