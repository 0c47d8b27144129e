"""S5 — the paper's (reconstructed) sublinear algorithms for constant T.

RECONSTRUCTION NOTICE (see DESIGN.md §0/§2).  The full text of
HJSWY SPAA 2022 was unavailable; this package implements algorithms with
the complexity *shape* the abstract claims — Count / Consensus / Max in
T-interval dynamic networks whose round complexity contains **no Ω(N)
term** under constant ``T``, being instead ``O(d)``/``Õ(d)`` in the
dynamic diameter ``d`` — built from three pillars:

* :mod:`~repro.core.aggregation` — repeated local broadcast of
  commutative-idempotent aggregates (max / min / id-set union /
  min-vector, and products of them), which converges to the global
  aggregate within exactly ``d`` rounds; every Count front-end merges
  through it;
* :mod:`~repro.core.termination` — the **quiescence controller**: a
  guess-and-verify doubling rule that turns convergence into *stabilizing
  decisions* with deterministic ``O(d)`` stabilization and all final
  decisions correct, with zero knowledge of ``N`` or ``d``
  (the soundness lemma is proved in the module docstring); its
  ``settle`` is the one place a stabilizing node decides or retracts;
* :mod:`~repro.core.sketches` — exponential-minima cardinality sketches
  making Count bandwidth-frugal (``Θ(ε⁻² log δ⁻¹)`` words instead of
  ``Θ(N)`` ids).

Problem front-ends:

* :class:`~repro.core.max_compute.SublinearMax` — Max in ``O(d)``;
* :class:`~repro.core.consensus.SublinearConsensus` — Consensus in ``O(d)``;
* :class:`~repro.core.exact_count.ExactCount` — exact Count in ``O(d)``
  (set-union messages, the same unbounded-bandwidth regime as the KLO
  baseline it is compared against);
* :class:`~repro.core.approx_count.ApproxCount` — ``(1±ε)`` Count w.h.p.
  in ``O(d)`` rounds with ``O(ε⁻² log δ⁻¹)``-word messages;
* :class:`~repro.core.hybrid_count.HybridCount` — halting, w.h.p.-exact
  Count in ``≈ 1.5N`` rounds: the id-set × min-vector product aggregate
  plus one halt rule (extension, X1);
* ``*KnownBound`` halting variants for the known-diameter-bound model.
"""

from .aggregation import (
    Aggregate,
    MaxAggregate,
    MinVectorAggregate,
    ProductAggregate,
    AggregateNode,
    KnownBoundAggregateNode,
)
from .termination import QuiescenceController
from .sketches import (
    ExponentialCountSketch,
    GeometricCountSketch,
    required_width,
    estimate_from_minima,
)
from .max_compute import SublinearMax, MaxKnownBound
from .consensus import SublinearConsensus, ConsensusKnownBound
from .exact_count import ExactCount, ExactCountKnownBound
from .approx_count import ApproxCount, ApproxCountKnownBound
from .pipelining import PipelinedApproxCount
from .hybrid_count import HybridCount
from .pipelined_exact import PipelinedExactCount

__all__ = [
    "Aggregate",
    "MaxAggregate",
    "MinVectorAggregate",
    "ProductAggregate",
    "AggregateNode",
    "KnownBoundAggregateNode",
    "QuiescenceController",
    "ExponentialCountSketch",
    "GeometricCountSketch",
    "required_width",
    "estimate_from_minima",
    "SublinearMax",
    "MaxKnownBound",
    "SublinearConsensus",
    "ConsensusKnownBound",
    "ExactCount",
    "ExactCountKnownBound",
    "ApproxCount",
    "ApproxCountKnownBound",
    "PipelinedApproxCount",
    "HybridCount",
    "PipelinedExactCount",
]
