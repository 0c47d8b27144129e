"""Sweep progress reporting.

The executor emits a :class:`ProgressSnapshot` after every state change
(cell dispatched, cell completed, cache hits), and the finished snapshot
once, last.  Any callable accepting a snapshot can observe a run;
:class:`ConsoleProgress` is the built-in reporter that renders a single
live status line::

    [cells] 31/45 rows | 12.4/s | ETA 0:00:01 | exec 23 cache 8 | 4 in flight: exact_count/lowdiam_handoff[n=128] …

Rates and ETAs count *executed* cells only (cache hits are effectively
free), so the ETA stays honest on warm reruns.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional, TextIO, Tuple

__all__ = ["ProgressSnapshot", "ProgressCallback", "ConsoleProgress"]


@dataclass(frozen=True)
class ProgressSnapshot:
    """One observation of a running sweep."""

    total: int                       #: cells in the sweep
    done: int                        #: cells finished (any source)
    executed: int                    #: cells actually simulated this run
    cache_hits: int                  #: cells answered by the result cache
    errors: int                      #: cells that raised (on_error="record")
    elapsed: float                   #: seconds since the run started
    in_flight: Tuple[str, ...] = ()  #: labels of cells currently running

    @property
    def rate(self) -> float:
        """Executed cells per second (0 until the first completion)."""
        if self.elapsed <= 0 or self.executed == 0:
            return 0.0
        return self.executed / self.elapsed

    @property
    def eta_seconds(self) -> Optional[float]:
        """Predicted seconds to finish, from the executed-cell rate."""
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        rate = self.rate
        if rate <= 0:
            return None
        return remaining / rate


ProgressCallback = Callable[[ProgressSnapshot], None]


def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--:--"
    seconds = int(seconds)
    h, rem = divmod(seconds, 3600)
    m, s = divmod(rem, 60)
    return f"{h}:{m:02d}:{s:02d}" if h else f"{m:02d}:{s:02d}"


class ConsoleProgress:
    """Render snapshots as a single carriage-return status line.

    On a stream that is not a terminal (a log file, a pipe, CI output)
    the redraws would pile up on one line, so only the finished snapshot
    is written there, as one line.

    Parameters
    ----------
    label:
        Prefix identifying the run (the CLI uses ``cells``).
    stream:
        Defaults to ``sys.stderr`` so progress never pollutes piped
        result output.
    min_interval:
        Minimum seconds between repaints (the final snapshot always
        paints).
    """

    def __init__(self, label: str = "sweep", stream: Optional[TextIO] = None,
                 min_interval: float = 0.1) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._last_paint = 0.0
        self._last_len = 0

    def __call__(self, snap: ProgressSnapshot) -> None:
        now = time.monotonic()
        finished = snap.done >= snap.total
        live = self.stream.isatty()
        if not finished and (not live
                             or now - self._last_paint < self.min_interval):
            return
        self._last_paint = now
        parts = [
            f"[{self.label}] {snap.done}/{snap.total} rows",
            f"{snap.rate:.1f}/s",
            f"ETA {_fmt_eta(snap.eta_seconds)}",
            f"exec {snap.executed} cache {snap.cache_hits}",
        ]
        if snap.errors:
            parts.append(f"errors {snap.errors}")
        if snap.in_flight:
            shown = ", ".join(snap.in_flight[:3])
            more = len(snap.in_flight) - 3
            if more > 0:
                shown += f" (+{more})"
            parts.append(f"{len(snap.in_flight)} in flight: {shown}")
        line = " | ".join(parts)
        if live:
            pad = max(0, self._last_len - len(line))
            self._last_len = len(line)
            line = "\r" + line + " " * pad
        self.stream.write(line + ("\n" if finished else ""))
        self.stream.flush()
