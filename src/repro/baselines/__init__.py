"""S4 — prior-work baseline algorithms.

These are the algorithms the paper's abstract positions itself against:

* :mod:`~repro.baselines.flooding` — epidemic token flooding, which
  measures flooding time (the classic ``O(N)``-round known-``N``
  Max/Consensus floods are the core's known-bound aggregates run with
  ``rounds_bound = N - 1``; folklore, analysed for 1-interval dynamic
  networks by Kuhn–Lynch–Oshman);
* :mod:`~repro.baselines.klo` — Kuhn–Lynch–Oshman **k-committee counting**
  (STOC 2010): deterministic, assumption-free, halting exact Count in
  ``Θ(N²)`` rounds — the ``Ω(N)``-term baseline of experiment T1;
* :mod:`~repro.baselines.token` — all-to-all token dissemination by
  random forwarding in the bounded-bandwidth regime (the substrate of the
  ``O(N + N²/T)`` pipelined counting bounds).

Each class documents the knowledge assumptions it makes (``N`` known, a
bound known, or nothing) — comparing those assumptions against
:mod:`repro.core` is part of the evaluation story.
"""

from .flooding import FloodToken
from .klo import KCommitteeCount
from .token import RandomTokenDissemination

__all__ = [
    "FloodToken",
    "KCommitteeCount",
    "RandomTokenDissemination",
]
