"""Replicate summaries for the experiment harness.

Every experiment runs several seeds; :func:`summarize` condenses the
replicate values into mean / standard deviation / a Student-t confidence
interval (``scipy.special.stdtrit``), which is what the tables report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Summary", "summarize"]


@dataclass(frozen=True)
class Summary:
    """Mean/std/CI of one measured quantity across replicates."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float
    confidence: float

    def __str__(self) -> str:
        if self.n == 1:
            return f"{self.mean:.6g}"
        return f"{self.mean:.6g} ± {self.ci_high - self.mean:.2g}"


def summarize(values: Sequence[float], confidence: float = 0.95) -> Summary:
    """Summarise replicate *values* with a ``confidence`` t-interval.

    With one replicate the interval degenerates to the point itself.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("values must be non-empty")
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    mean = float(arr.mean())
    if arr.size == 1:
        return Summary(1, mean, 0.0, mean, mean, mean, mean, confidence)
    std = float(arr.std(ddof=1))
    from scipy.special import stdtrit

    half = float(stdtrit(arr.size - 1, 0.5 + confidence / 2.0)
                 * std / math.sqrt(arr.size))
    return Summary(
        n=int(arr.size), mean=mean, std=std,
        minimum=float(arr.min()), maximum=float(arr.max()),
        ci_low=mean - half, ci_high=mean + half, confidence=confidence,
    )
