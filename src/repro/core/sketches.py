"""Cardinality sketches: counting as an idempotent aggregate.

The reconstruction's bandwidth-frugal Count rests on a classical fact
(Mosk-Aoyama & Shah 2006 and the Flajolet–Martin lineage): the **minimum**
of i.i.d. per-node random draws is an idempotent aggregate, and its
distribution reveals how many nodes contributed.

Exponential-minima sketch
-------------------------
Every node draws ``k`` i.i.d. ``Exp(1)`` variables; the network computes
the coordinate-wise minimum (``O(d)`` rounds via
:class:`~repro.core.aggregation.MinVectorAggregate`).  Each global minimum
is ``Exp(N)``, their sum ``G ~ Gamma(k, 1/N)``, and::

    N̂ = (k - 1) / Σ_j M_j

is the unbiased inverse-Gamma estimator with relative standard deviation
``≈ 1/√(k-2)``.  The failure probability is *exactly* computable::

    P[N̂ > (1+ε)N] = P[G < (k-1)/(1+ε)],   G ~ Gamma(k, 1)
    P[N̂ < (1-ε)N] = P[G > (k-1)/(1-ε)]

— :func:`failure_probability` evaluates this with the regularised
incomplete gamma functions ``scipy.special.gammainc``/``gammaincc`` and
:func:`required_width` inverts it, so experiment F4 can check measured
coverage against the analytic guarantee rather than a loose Chernoff
bound.

Geometric (Flajolet–Martin) sketch
----------------------------------
Each coordinate holds a geometric level ``⌊-log₂ U⌋`` aggregated by
**max**; the estimator ``2^mean(levels) / φ`` (``φ ≈ 0.77351``) is coarser
(constant-factor relative error per coordinate, needing many more
coordinates for the same accuracy) but uses ~5-bit coordinates instead of
64-bit floats.  It exists for the T3 sketch-family ablation.
"""

from __future__ import annotations

import functools

import numpy as np

from .._validate import (require_positive_float, require_positive_int,
                         require_probability)
from ..errors import ConfigurationError

__all__ = [
    "estimate_from_minima",
    "failure_probability",
    "required_width",
    "ExponentialCountSketch",
    "GeometricCountSketch",
]

#: Flajolet–Martin bias correction for the geometric estimator.
_FM_PHI = 0.77351

#: Widest sketch :func:`required_width` searches before giving up.
_MAX_WIDTH = 1 << 20


def estimate_from_minima(minima: np.ndarray) -> float:
    """Inverse-Gamma cardinality estimate from global coordinate minima.

    ``(k - 1) / Σ minima``; requires width ``k >= 2`` (``k = 1`` makes the
    estimator degenerate with infinite variance).
    """
    minima = np.asarray(minima, dtype=np.float64)
    k = minima.size
    if k < 2:
        raise ConfigurationError(f"need sketch width >= 2, got {k}")
    if (minima <= 0).any():
        raise ConfigurationError("minima must be positive (Exp(1) draws)")
    return (k - 1) / float(minima.sum())


def failure_probability(width: int, eps: float) -> float:
    """Exact ``P[|N̂/N - 1| > eps]`` for the exponential sketch.

    Distribution-free in ``N``: the relative error ``N̂/N`` equals
    ``(k-1)/G`` with ``G ~ Gamma(k, 1)`` regardless of ``N``.
    """
    from scipy.special import gammainc, gammaincc

    k = require_positive_int(width, "width")
    if k < 2:
        return 1.0
    eps = float(eps)
    if eps <= 0:
        return 1.0
    upper = gammainc(k, (k - 1) / (1.0 + eps))          # N̂ too large
    lower = gammaincc(k, (k - 1) / (1.0 - eps)) if eps < 1 else 0.0
    return float(upper + lower)


def required_width(eps: float, delta: float) -> int:
    """Smallest sketch width with ``P[|N̂/N - 1| > eps] <= delta``.

    Binary search over the exact failure probability (which is monotone
    decreasing in the width for fixed ``eps``).  The search is pure, so
    its result is memoised per ``(eps, delta)``: a population
    of approximate-count nodes sharing one target solves it once.  The
    argument checks run on every call, and a failed search raises again
    (exceptions are not cached).  A target needing a width above
    :data:`_MAX_WIDTH` raises :class:`~repro.errors.ConfigurationError`.
    """
    eps = require_positive_float(eps, "eps")
    delta = require_probability(delta, "delta")
    if delta <= 0:
        raise ConfigurationError("delta must be > 0")
    return _solve_width(eps, delta)


@functools.lru_cache(maxsize=None)
def _solve_width(eps: float, delta: float) -> int:
    lo, hi = 2, 4
    while failure_probability(hi, eps) > delta:
        hi *= 2
        if hi > _MAX_WIDTH:
            raise ConfigurationError(
                f"required width exceeds {_MAX_WIDTH} for eps={eps}, "
                f"delta={delta}")
    while lo < hi:
        mid = (lo + hi) // 2
        if failure_probability(mid, eps) <= delta:
            hi = mid
        else:
            lo = mid + 1
    return lo


class ExponentialCountSketch:
    """Factory/estimator pair for the exponential-minima sketch.

    Parameters
    ----------
    width:
        Number of coordinates ``k`` (use :func:`required_width` to derive
        it from an ``(ε, δ)`` target).
    """

    def __init__(self, width: int) -> None:
        self.width = require_positive_int(width, "width")
        if self.width < 2:
            raise ConfigurationError("exponential sketch needs width >= 2")

    @classmethod
    def for_accuracy(cls, eps: float, delta: float) -> "ExponentialCountSketch":
        """Build a sketch meeting a ``(1±eps)`` w.p. ``1-delta`` target."""
        return cls(required_width(eps, delta))

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One node's private contribution: ``k`` i.i.d. Exp(1) draws."""
        return rng.exponential(1.0, size=self.width)

    def estimate(self, minima: np.ndarray) -> float:
        """Cardinality estimate from the global coordinate-wise minima."""
        return estimate_from_minima(minima)

    def message_bits(self) -> int:
        """Bits per broadcast of a full sketch state (64-bit floats)."""
        return 64 * self.width + 8


class GeometricCountSketch:
    """Flajolet–Martin-style max-of-geometric-levels sketch (ablation).

    ``draw`` returns *negated* levels so that the same
    :class:`~repro.core.aggregation.MinVectorAggregate` machinery (which
    minimises) aggregates the **maximum** level; :meth:`estimate` undoes
    the negation.
    """

    def __init__(self, width: int) -> None:
        self.width = require_positive_int(width, "width")

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(size=self.width)
        levels = np.floor(-np.log2(u))
        return -levels  # negated: min-aggregation == max of levels

    def estimate(self, minima: np.ndarray) -> float:
        levels = -np.asarray(minima, dtype=np.float64)
        if levels.size == 0:
            raise ConfigurationError("empty sketch")
        # Per-coordinate max level ≈ log2(N) + Gumbel noise; averaging the
        # levels before exponentiating (stochastic averaging) tames the
        # heavy tail, and φ corrects the expectation bias.
        return float(2.0 ** levels.mean() / _FM_PHI)

    def message_bits(self) -> int:
        """Bits per broadcast: levels fit in ~6 bits each (N < 2^64)."""
        return 6 * self.width + 8
