"""Power-law fits for the scaling figures.

Experiment F1 reports, for each algorithm, the exponent ``b`` of the best
power-law fit ``rounds ≈ a · N^b`` over the measured ``(N, rounds)``
points — ``b ≈ 2`` for KLO, ``b ≈ 1`` for flooding, ``b ≈ 0`` (polylog)
for the core algorithms on low-diameter dynamics.  Fitting happens in
log-log space with ordinary least squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = ["power_law_fit", "PowerLawFit"]


@dataclass(frozen=True)
class PowerLawFit:
    """Result of fitting ``y ≈ coefficient · x^exponent``.

    ``r_squared`` is the coefficient of determination in log-log space.
    """

    exponent: float
    coefficient: float
    r_squared: float

    def predict(self, x: float) -> float:
        """Evaluate the fitted law at *x*."""
        return self.coefficient * float(x) ** self.exponent


def _validate(xs: Sequence[float], ys: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ConfigurationError(f"xs and ys must be equal-length 1-D, got {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise ConfigurationError("need at least 2 points to fit")
    if (x <= 0).any() or (y <= 0).any():
        raise ConfigurationError("power-law fits need strictly positive data")
    return x, y


def power_law_fit(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """OLS fit of ``log y = log a + b log x``; returns (b, a, R²)."""
    x, y = _validate(xs, ys)
    lx, ly = np.log(x), np.log(y)
    b, loga = np.polyfit(lx, ly, 1)
    resid = ly - (loga + b * lx)
    ss_res = float((resid ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(exponent=float(b), coefficient=float(np.exp(loga)),
                       r_squared=r2)
