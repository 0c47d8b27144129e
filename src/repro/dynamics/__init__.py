"""S2+S3 — dynamic-graph schedules, adversaries, and their certification.

A *schedule* assigns to every 1-based round index an undirected graph over
``num_nodes`` node indices.  The adversaries here generate schedules that
**provably satisfy T-interval connectivity** (the promise the paper's
adversary makes); :mod:`repro.dynamics.verifier` machine-checks that
promise on any schedule, and :mod:`repro.dynamics.diameter` computes the
exact flooding time ("dynamic diameter" ``d``) that parameterises the
paper's complexity bounds.

Contents
--------
* :mod:`~repro.dynamics.schedule` — schedule base classes (explicit,
  function-backed, adaptive).
* :mod:`~repro.dynamics.topologies` — static topology zoo (line, ring,
  expander, ring-of-cliques, ...), all returning canonical edge arrays.
* :mod:`~repro.dynamics.interval` — oblivious T-interval adversaries
  (static, stable-backbone-with-churn, overlap-handoff rewiring).
* :mod:`~repro.dynamics.adaptive` — adaptive adversaries that inspect node
  state (used for worst-case T=1 experiments).
* :mod:`~repro.dynamics.churn` — edge-churn and repaired-mobility models.
* :mod:`~repro.dynamics.verifier` — T-interval-connectivity certification.
* :mod:`~repro.dynamics.diameter` — exact dynamic diameter / flooding time.
"""

from .schedule import (
    GraphSchedule,
    ExplicitSchedule,
    FunctionSchedule,
    CSRAdjacency,
    build_csr,
    STABLE_FOREVER,
)
from .topologies import (
    line_graph,
    ring_graph,
    star_graph,
    complete_graph,
    random_tree_graph,
    random_regular_expander,
    ring_of_cliques,
    TOPOLOGY_BUILDERS,
    build_topology,
)
from .interval import (
    StaticAdversary,
    OverlapHandoffAdversary,
    FreshSpanningAdversary,
    AlternatingMatchingsAdversary,
    random_noise_edges,
)
from .adaptive import (
    AdaptiveSchedule,
    PathHiderAdversary,
    CutThrottleAdversary,
    WindowedThrottleAdversary,
)
from .churn import EdgeChurnAdversary, RepairedMobilityAdversary
from .verifier import (
    verify_t_interval_connectivity,
    is_connected_spanning,
)
from .diameter import dynamic_diameter, flooding_time_from
from .combinators import dilate, union_schedules, concatenate, relabel

__all__ = [
    "GraphSchedule",
    "ExplicitSchedule",
    "FunctionSchedule",
    "CSRAdjacency",
    "build_csr",
    "STABLE_FOREVER",
    "line_graph",
    "ring_graph",
    "star_graph",
    "complete_graph",
    "random_tree_graph",
    "random_regular_expander",
    "ring_of_cliques",
    "TOPOLOGY_BUILDERS",
    "build_topology",
    "StaticAdversary",
    "OverlapHandoffAdversary",
    "FreshSpanningAdversary",
    "AlternatingMatchingsAdversary",
    "random_noise_edges",
    "AdaptiveSchedule",
    "PathHiderAdversary",
    "CutThrottleAdversary",
    "WindowedThrottleAdversary",
    "EdgeChurnAdversary",
    "RepairedMobilityAdversary",
    "verify_t_interval_connectivity",
    "is_connected_spanning",
    "dynamic_diameter",
    "flooding_time_from",
    "dilate",
    "union_schedules",
    "concatenate",
    "relabel",
]
