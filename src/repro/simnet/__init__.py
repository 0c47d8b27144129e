"""S1 — the lock-step synchronous dynamic-network simulator.

This subpackage is the execution substrate every algorithm in this
repository runs on.  It implements the communication model of the paper
(and of Kuhn–Lynch–Oshman T-interval dynamic networks generally):

* ``N`` anonymous-count nodes with unique ids proceed in lock-step rounds;
* each round, every node composes **one** broadcast message *before*
  learning who its neighbours are;
* the adversary's graph for the round then delivers that message to every
  current neighbour;
* nodes consume their inbox and update local state.

Public surface:

* :class:`~repro.simnet.engine.Simulator` — the round engine.
* :class:`~repro.simnet.node.Algorithm` — base class for protocol nodes.
* :class:`~repro.simnet.node.RoundContext` — per-round info handed to nodes.
* :class:`~repro.simnet.metrics.RunMetrics` / :class:`~repro.simnet.metrics.MetricsCollector`
  — exact rounds/messages/bits accounting.
* :class:`~repro.simnet.rng.RngRegistry` — deterministic per-component,
  per-node random streams.
* :func:`~repro.simnet.message.bit_size` — CONGEST-style message costing.
"""

from .engine import Simulator, RunResult, profile_default, set_profile_default
from .node import Algorithm, RoundContext
from .metrics import MetricsCollector, RunMetrics
from .rng import RngRegistry, derive_seeds
from .message import bit_size

__all__ = [
    "Simulator",
    "RunResult",
    "profile_default",
    "set_profile_default",
    "Algorithm",
    "RoundContext",
    "MetricsCollector",
    "RunMetrics",
    "RngRegistry",
    "derive_seeds",
    "bit_size",
]
