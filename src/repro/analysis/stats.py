"""Replicate summaries for the experiment harness.

Every experiment runs several seeds; :func:`summarize` condenses the
replicate values into mean / standard deviation / a 95% Student-t
confidence interval (``scipy.special.stdtrit``), which is what the tables
report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError

__all__ = ["Summary", "summarize"]

#: Two-sided coverage of the replicate t-interval.
_CONFIDENCE = 0.95


@dataclass(frozen=True)
class Summary:
    """Mean/std/95% CI of one measured quantity across replicates."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float

    def __str__(self) -> str:
        if self.n == 1:
            return f"{self.mean:.6g}"
        return f"{self.mean:.6g} ± {self.ci_high - self.mean:.2g}"


def summarize(values: Sequence[float]) -> Summary:
    """Summarise replicate *values* with a 95% t-interval.

    With one replicate the interval degenerates to the point itself.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ConfigurationError("values must be non-empty")
    mean = float(arr.mean())
    if arr.size == 1:
        return Summary(1, mean, 0.0, mean, mean, mean, mean)
    std = float(arr.std(ddof=1))
    from scipy.special import stdtrit

    half = float(stdtrit(arr.size - 1, 0.5 + _CONFIDENCE / 2.0)
                 * std / math.sqrt(arr.size))
    return Summary(
        n=int(arr.size), mean=mean, std=std,
        minimum=float(arr.min()), maximum=float(arr.max()),
        ci_low=mean - half, ci_high=mean + half,
    )
