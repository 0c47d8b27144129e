"""Approximate Count in ``O(d)`` rounds with small messages (RECONSTRUCTION).

:class:`ApproxCount` runs the exponential-minima sketch of
:mod:`repro.core.sketches` through the min-vector aggregate: each node
privately draws ``k = Θ(ε⁻² log δ⁻¹)`` exponentials, the network computes
the coordinate-wise global minimum in ``O(d)`` rounds, and every node
outputs the inverse-Gamma estimate — within ``(1 ± ε)`` of the true ``N``
with probability ``≥ 1 - δ`` (*exact* failure probability computable, see
:func:`repro.core.sketches.failure_probability`).

Why this matters next to :class:`~repro.core.exact_count.ExactCount`:
messages here are ``O(ε⁻² log δ⁻¹)`` 64-bit words — **independent of N**
— versus the ``Θ(N log N)``-bit id sets of the exact variants and of the
KLO baseline.  Experiment F6 measures that bit-complexity separation,
F4 the accuracy/coverage.

Determinism note: each node's draws come from its private simulator
stream (:class:`~repro.simnet.rng.RngRegistry`), so whole experiments are
seed-reproducible, and the estimate is **unanimous** across nodes — all
decide from the same global minima vector.

Both knowledge variants exist, as for the other problems:
:class:`ApproxCount` (stabilizing, zero-knowledge) and
:class:`ApproxCountKnownBound` (halting, known ``D >= d``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._validate import require_positive_int
from ..errors import ConfigurationError
from ..simnet.batch import MinVectorBatchKernel
from .aggregation import (
    AggregateNode,
    KnownBoundAggregateNode,
    MinVectorAggregate,
)
from .sketches import ExponentialCountSketch, GeometricCountSketch

__all__ = ["ApproxCount", "ApproxCountKnownBound"]


def _make_sketch(width: Optional[int], eps: Optional[float],
                 delta: Optional[float], family: str):
    """Resolve the sketch from either an explicit width or an (ε, δ) target."""
    if width is None:
        if eps is None or delta is None:
            raise ConfigurationError("pass either width or both eps and delta")
        if family == "geometric":
            # Geometric coordinates are far noisier; give the ablation a
            # comparable coordinate budget to the exponential target.
            width = ExponentialCountSketch.for_accuracy(eps, delta).width
        else:
            return ExponentialCountSketch.for_accuracy(eps, delta)
    require_positive_int(width, "width")
    if family == "geometric":
        return GeometricCountSketch(width)
    if family == "exponential":
        return ExponentialCountSketch(width)
    raise ConfigurationError(f"unknown sketch family {family!r}")


class ApproxCount(AggregateNode):
    """Stabilizing ``(1±ε)`` Count with no knowledge of ``N`` or ``d``.

    Parameters
    ----------
    node_id:
        Node id.
    eps, delta:
        Accuracy target: relative error ``<= eps`` with probability
        ``>= 1 - delta``; sets the sketch width via the exact tail bound.
    width:
        Alternatively fix the sketch width directly (ablations).
    family:
        ``"exponential"`` (default) or ``"geometric"`` (T3 ablation).
    """

    name = "approx_count"

    def __init__(self, node_id: int, eps: Optional[float] = None,
                 delta: Optional[float] = None,
                 width: Optional[int] = None,
                 family: str = "exponential",
                 initial_window: int = 1, window_growth: int = 2) -> None:
        sketch = _make_sketch(width, eps, delta, family)
        super().__init__(node_id, MinVectorAggregate(sketch.width),
                         initial_window=initial_window,
                         window_growth=window_growth)
        self.sketch = sketch

    def make_contribution(self, rng: np.random.Generator) -> np.ndarray:
        return self.sketch.draw(rng)

    def extract_output(self, state: np.ndarray) -> float:
        return self.sketch.estimate(state)

    __batch_kernel__ = MinVectorBatchKernel.build


class ApproxCountKnownBound(KnownBoundAggregateNode):
    """Halting ``(1±ε)`` Count under a known bound ``D >= d``."""

    name = "approx_count_known_bound"

    def __init__(self, node_id: int, rounds_bound: int,
                 eps: Optional[float] = None, delta: Optional[float] = None,
                 width: Optional[int] = None,
                 family: str = "exponential") -> None:
        sketch = _make_sketch(width, eps, delta, family)
        super().__init__(node_id, MinVectorAggregate(sketch.width),
                         rounds_bound)
        self.sketch = sketch

    def make_contribution(self, rng: np.random.Generator) -> np.ndarray:
        return self.sketch.draw(rng)

    def extract_output(self, state: np.ndarray) -> float:
        return self.sketch.estimate(state)

    __batch_kernel__ = MinVectorBatchKernel.build
