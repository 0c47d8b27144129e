"""S4 — prior-work baseline algorithms.

These are the algorithms the paper's abstract positions itself against:

* :mod:`~repro.baselines.flooding` — epidemic token flooding and the
  classic ``O(N)``-round known-``N`` Max/Broadcast (folklore; analysed for
  1-interval dynamic networks by Kuhn–Lynch–Oshman);
* :mod:`~repro.baselines.klo` — Kuhn–Lynch–Oshman **k-committee counting**
  (STOC 2010): deterministic, assumption-free, halting exact Count in
  ``Θ(N²)`` rounds — the ``Ω(N)``-term baseline of experiment T1;
* :mod:`~repro.baselines.token` — all-to-all token dissemination by
  random forwarding in the bounded-bandwidth regime (the substrate of the
  ``O(N + N²/T)`` pipelined counting bounds);
* :mod:`~repro.baselines.consensus` — flood consensus with known ``N``
  (or a known round bound).

Each class documents the knowledge assumptions it makes (``N`` known, a
bound known, or nothing) — comparing those assumptions against
:mod:`repro.core` is part of the evaluation story.
"""

from .flooding import FloodToken, FloodMax, FloodBroadcast
from .klo import KCommitteeCount
from .token import RandomTokenDissemination
from .consensus import FloodConsensus

__all__ = [
    "FloodToken",
    "FloodMax",
    "FloodBroadcast",
    "KCommitteeCount",
    "RandomTokenDissemination",
    "FloodConsensus",
]
