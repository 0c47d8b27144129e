"""Static topology zoo.

Every builder returns a canonical edge array (see
:func:`~repro.dynamics.schedule.canonical_edges`) for a **connected** graph
on ``n`` node indices.  The zoo spans the diameter spectrum the
reconstructed evaluation sweeps:

========================  =======================  =========================
builder                   diameter                 role in the evaluation
========================  =======================  =========================
``line_graph``            ``n - 1``                worst-case ``d = Θ(N)``
``ring_graph``            ``⌊n/2⌋``                ``d = Θ(N)``
``ring_of_cliques``       ``Θ(k)`` (k cliques)     sweeps ``d`` at fixed N
``random_regular_…``      ``O(log n)`` w.h.p.      low-``d`` expander
``star_graph``            ``2``                    minimal ``d``
``complete_graph``        ``1``                    sanity floor
========================  =======================  =========================

Randomised builders take an explicit :class:`numpy.random.Generator`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .._validate import require_positive_int
from ..errors import ConfigurationError
from .schedule import canonical_edges
from .verifier import is_connected_spanning

__all__ = [
    "line_graph",
    "ring_graph",
    "star_graph",
    "complete_graph",
    "random_tree_graph",
    "random_regular_expander",
    "ring_of_cliques",
    "TOPOLOGY_BUILDERS",
    "build_topology",
]


def line_graph(n: int) -> np.ndarray:
    """Path ``0 - 1 - … - (n-1)``; diameter ``n - 1``."""
    require_positive_int(n, "n")
    if n == 1:
        return canonical_edges([], 1)
    idx = np.arange(n - 1)
    return canonical_edges(np.stack([idx, idx + 1], axis=1), n)


def ring_graph(n: int) -> np.ndarray:
    """Cycle on ``n`` nodes; diameter ``⌊n/2⌋``.  Requires ``n >= 3``."""
    require_positive_int(n, "n")
    if n < 3:
        raise ConfigurationError(f"ring requires n >= 3, got {n}")
    idx = np.arange(n)
    return canonical_edges(np.stack([idx, (idx + 1) % n], axis=1), n)


def star_graph(n: int, center: int = 0) -> np.ndarray:
    """Star with the given *center*; diameter 2 (1 for ``n = 2``)."""
    require_positive_int(n, "n")
    if not (0 <= center < n):
        raise ConfigurationError(f"center must be in [0, {n}), got {center}")
    if n == 1:
        return canonical_edges([], 1)
    others = np.array([i for i in range(n) if i != center])
    centers = np.full(others.shape, center)
    return canonical_edges(np.stack([centers, others], axis=1), n)


def complete_graph(n: int) -> np.ndarray:
    """Clique on ``n`` nodes; diameter 1."""
    require_positive_int(n, "n")
    iu = np.triu_indices(n, k=1)
    return canonical_edges(np.stack(iu, axis=1), n)


def random_tree_graph(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random recursive tree: node ``i`` attaches to a random ``j < i``."""
    require_positive_int(n, "n")
    if n == 1:
        return canonical_edges([], 1)
    child = np.arange(1, n)
    # Vectorised bounds draw the same values (and advance the bit
    # generator identically) as a per-i scalar loop, so existing seeded
    # schedules are unchanged.
    parent = rng.integers(0, child)
    return canonical_edges(np.stack([parent, child], axis=1), n)


def random_regular_expander(n: int, degree: int,
                            rng: np.random.Generator,
                            max_attempts: int = 64) -> np.ndarray:
    """Random *degree*-regular graph (configuration model), conditioned on
    connectivity and simplicity; ``O(log n)`` diameter w.h.p.

    Falls back to adding a random tree if no connected simple sample is
    found within *max_attempts* (vanishingly rare for ``degree >= 3``).
    """
    require_positive_int(n, "n")
    require_positive_int(degree, "degree")
    if degree >= n:
        raise ConfigurationError(f"degree must be < n, got degree={degree}, n={n}")
    if (n * degree) % 2 != 0:
        raise ConfigurationError("n * degree must be even for a regular graph")
    stubs_template = np.repeat(np.arange(n), degree)
    last = None
    for _ in range(max_attempts):
        stubs = rng.permutation(stubs_template)
        pairs = stubs.reshape(-1, 2)
        ok = pairs[:, 0] != pairs[:, 1]
        edges = canonical_edges(pairs[ok], n)
        last = edges
        if is_connected_spanning(edges, n):
            return edges
    tree = random_tree_graph(n, rng)
    combined = np.concatenate([last, tree]) if last is not None and last.size else tree
    return canonical_edges(combined, n)


def ring_of_cliques(n: int, num_cliques: int) -> np.ndarray:
    """``num_cliques`` near-equal cliques arranged in a cycle; diameter ``Θ(num_cliques)``.

    The evaluation's diameter-sweep family: at fixed ``n``, varying
    ``num_cliques`` from 2 to ``n`` moves the diameter from ``O(1)`` to
    ``Θ(n)`` (``num_cliques = n`` degenerates to a ring).
    """
    require_positive_int(n, "n")
    require_positive_int(num_cliques, "num_cliques")
    if num_cliques > n:
        raise ConfigurationError(
            f"num_cliques must be <= n, got {num_cliques} > {n}")
    if num_cliques < 2:
        return complete_graph(n)
    bounds = np.linspace(0, n, num_cliques + 1).astype(int)
    edges: List[Tuple[int, int]] = []
    for c in range(num_cliques):
        members = range(bounds[c], bounds[c + 1])
        members = list(members)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                edges.append((u, v))
    # Connect consecutive cliques via their boundary members.
    for c in range(num_cliques):
        u = bounds[c + 1] - 1            # last member of clique c
        v = bounds[(c + 1) % num_cliques]  # first member of the next
        if u != v:
            edges.append((u, v))
    return canonical_edges(edges, n)


#: Registry used by the experiment harness to build topologies by name.
#: Builders take ``(n, rng)``; deterministic ones ignore ``rng``.
TOPOLOGY_BUILDERS: Dict[str, Callable[[int, np.random.Generator], np.ndarray]] = {
    "line": lambda n, rng: line_graph(n),
    "ring": lambda n, rng: ring_graph(n),
    "star": lambda n, rng: star_graph(n),
    "complete": lambda n, rng: complete_graph(n),
    "random_tree": random_tree_graph,
    "expander": lambda n, rng: random_regular_expander(n, 4, rng),
}


def build_topology(name: str, n: int,
                   rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Build the named topology from :data:`TOPOLOGY_BUILDERS`."""
    try:
        builder = TOPOLOGY_BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown topology {name!r}; known: {sorted(TOPOLOGY_BUILDERS)}"
        ) from None
    if rng is None:
        rng = np.random.default_rng(0)
    return builder(n, rng)
