"""Closed-form round-complexity predictors.

One function per algorithm family, each returning the number of rounds
theory predicts for given model parameters.  The evaluation overlays
these on the measured curves: reproduction success is the *shape match*
(who wins, what slope, where curves cross), not absolute constants.

============================  =====================================
algorithm                     predictor
============================  =====================================
KLO k-committee Count         :func:`klo_rounds` — exact, ``Θ(N²)``
flooding Max/Consensus        :func:`flood_rounds` — ``N - 1``
(known ``N``)
quiescence-controlled core    :func:`quiescence_rounds_bound` —
(stabilizing, zero knowledge)  ``≤ (1 + growth)·d + O(1)``
TDM-pipelined sketch          :func:`tdm_rounds_bound` —
                               ``d·⌈k/w⌉ + window``
============================  =====================================
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .._validate import require_positive_int
from ..errors import ConfigurationError
from ..baselines.klo import total_rounds_prediction

__all__ = [
    "klo_rounds",
    "flood_rounds",
    "quiescence_rounds_bound",
    "tdm_rounds_bound",
    "crossover_n",
]


def klo_rounds(n: int, initial_guess: int = 1) -> int:
    """Exact rounds of :class:`~repro.baselines.klo.KCommitteeCount`.

    The algorithm is deterministic and topology-oblivious, so this is an
    equality, not a bound (verified by the integration tests); asymptotic
    order ``Θ(N²)``.
    """
    return total_rounds_prediction(n, initial_guess)


def flood_rounds(n: int) -> int:
    """Rounds of the known-``N`` flooding baselines: exactly ``N - 1``."""
    require_positive_int(n, "n")
    return max(1, n - 1)


def quiescence_rounds_bound(d: int, growth: int = 2,
                            initial_window: int = 1) -> int:
    """Upper bound on last-final-decision round for the stabilizing core.

    From the proof in :mod:`repro.core.termination`: last state change at
    round ``≤ d``; retraction windows sum to ``< d`` so the final window
    is ``< growth · d`` (but at least ``initial_window``); the final
    decision lands within that window after the last change.
    """
    require_positive_int(d, "d")
    return d + max(initial_window, growth * d) + 1


def tdm_rounds_bound(d: int, width: int, words_per_message: int,
                     initial_window: Optional[int] = None) -> int:
    """Upper bound for TDM-pipelined sketch aggregation.

    Each coordinate's min-flood progresses once per ``⌈k/w⌉``-round
    cycle, so convergence within ``d`` cycles; add the quiescence window
    (defaulting to one cycle) for the decision.
    """
    require_positive_int(d, "d")
    cycle = math.ceil(width / words_per_message)
    window = cycle if initial_window is None else initial_window
    return d * cycle + window + 1


def crossover_n(f: Callable[[int], float], g: Callable[[int], float],
                n_min: int = 2, n_max: int = 1 << 22) -> Optional[int]:
    """Smallest ``n`` in ``[n_min, n_max]`` with ``f(n) < g(n)``.

    Used by experiment F5 to locate where the core algorithms start
    beating each baseline.  Linear scan with geometric refinement: first
    find a power-of-two bracket, then binary-search the first crossing
    inside it (assumes ``g - f`` changes sign at most once in the
    bracket, which holds for the monotone-difference curves compared
    here).  Returns ``None`` if no crossover occurs in range.
    """
    if n_min > n_max:
        raise ConfigurationError(f"n_min {n_min} > n_max {n_max}")
    if f(n_min) < g(n_min):
        return n_min
    lo = n_min
    hi = n_min
    while True:
        hi = min(max(hi * 2, n_min + 1), n_max)
        if f(hi) < g(hi):
            break
        if hi == n_max:
            return None
        lo = hi
    # binary search the first n in (lo, hi] with f(n) < g(n)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if f(mid) < g(mid):
            hi = mid
        else:
            lo = mid
    return hi
