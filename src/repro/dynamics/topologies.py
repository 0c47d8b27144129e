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
``grid_graph``            ``Θ(√n)``                intermediate ``d``
``hypercube_graph``       ``log₂ n``               low ``d``
``random_regular_…``      ``O(log n)`` w.h.p.      low-``d`` expander
``binary_tree_graph``     ``Θ(log n)``             low ``d``, sparse
``star_graph``            ``2``                    minimal ``d``
``complete_graph``        ``1``                    sanity floor
========================  =======================  =========================

Randomised builders take an explicit :class:`numpy.random.Generator`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .._validate import require_positive_int, require_probability
from ..errors import ConfigurationError
from .schedule import canonical_edges
from .verifier import is_connected_spanning

__all__ = [
    "line_graph",
    "ring_graph",
    "star_graph",
    "complete_graph",
    "binary_tree_graph",
    "random_tree_graph",
    "erdos_renyi_connected",
    "hypercube_graph",
    "grid_graph",
    "random_regular_expander",
    "barbell_graph",
    "ring_of_cliques",
    "wheel_graph",
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


def binary_tree_graph(n: int) -> np.ndarray:
    """Complete-ish binary tree (heap indexing); diameter ``Θ(log n)``."""
    require_positive_int(n, "n")
    if n == 1:
        return canonical_edges([], 1)
    child = np.arange(1, n)
    parent = (child - 1) // 2
    return canonical_edges(np.stack([parent, child], axis=1), n)


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


def erdos_renyi_connected(n: int, p: float, rng: np.random.Generator,
                          max_attempts: int = 64) -> np.ndarray:
    """``G(n, p)`` conditioned on connectivity.

    Retries up to *max_attempts* samples; if none is connected, the last
    sample is *repaired* by adding a uniform random recursive tree (the
    repair is noted in the literature's simulations and keeps the edge
    distribution close to ``G(n, p)`` when ``p`` is near the threshold).
    """
    require_positive_int(n, "n")
    require_probability(p, "p")
    if n == 1:
        return canonical_edges([], 1)
    iu = np.triu_indices(n, k=1)
    all_pairs = np.stack(iu, axis=1)
    last = None
    for _ in range(max_attempts):
        mask = rng.random(len(all_pairs)) < p
        edges = all_pairs[mask]
        last = edges
        if is_connected_spanning(edges, n):
            return canonical_edges(edges, n)
    tree = random_tree_graph(n, rng)
    combined = np.concatenate([last, tree]) if last is not None and last.size else tree
    return canonical_edges(combined, n)


def hypercube_graph(n: int) -> np.ndarray:
    """Hypercube on ``n = 2^k`` nodes; diameter ``k``."""
    require_positive_int(n, "n")
    k = n.bit_length() - 1
    if 1 << k != n:
        raise ConfigurationError(f"hypercube requires n to be a power of 2, got {n}")
    edges: List[Tuple[int, int]] = []
    for u in range(n):
        for b in range(k):
            v = u ^ (1 << b)
            if u < v:
                edges.append((u, v))
    return canonical_edges(edges, n)


def grid_graph(n: int, torus: bool = False) -> np.ndarray:
    """Near-square 2D grid on exactly ``n`` nodes; diameter ``Θ(√n)``.

    The grid has ``rows = ⌊√n⌋`` rows; the last row may be shorter.  With
    ``torus=True`` wrap-around edges are added (only between full rows /
    columns, so the graph stays simple and connected for ragged ``n``).
    """
    require_positive_int(n, "n")
    rows = max(1, int(math.isqrt(n)))
    cols = math.ceil(n / rows)
    edges: List[Tuple[int, int]] = []

    def nid(r: int, c: int) -> Optional[int]:
        i = r * cols + c
        return i if i < n else None

    for r in range(rows):
        for c in range(cols):
            u = nid(r, c)
            if u is None:
                continue
            right = nid(r, c + 1)
            down = nid(r + 1, c)
            if right is not None:
                edges.append((u, right))
            if down is not None:
                edges.append((u, down))
            if torus:
                if c == cols - 1:
                    w = nid(r, 0)
                    if w is not None and w != u:
                        edges.append((u, w))
                if r == rows - 1:
                    w = nid(0, c)
                    if w is not None and w != u:
                        edges.append((u, w))
    return canonical_edges(edges, n)


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


def barbell_graph(n: int) -> np.ndarray:
    """Two ``⌊n/2⌋``-cliques joined by a single bridge edge; diameter 3.

    A classic low-diameter / low-conductance instance: flooding is fast
    but the bridge is a 1-edge bottleneck for bandwidth-limited protocols.
    """
    require_positive_int(n, "n")
    if n < 4:
        raise ConfigurationError(f"barbell requires n >= 4, got {n}")
    half = n // 2
    edges: List[Tuple[int, int]] = []
    for u in range(half):
        for v in range(u + 1, half):
            edges.append((u, v))
    for u in range(half, n):
        for v in range(u + 1, n):
            edges.append((u, v))
    edges.append((half - 1, half))
    return canonical_edges(edges, n)


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


def wheel_graph(n: int) -> np.ndarray:
    """Cycle on ``n - 1`` nodes plus a hub (node 0); diameter 2."""
    require_positive_int(n, "n")
    if n < 4:
        raise ConfigurationError(f"wheel requires n >= 4, got {n}")
    rim = np.arange(1, n)
    edges = [(0, int(v)) for v in rim]
    for i in range(len(rim)):
        edges.append((int(rim[i]), int(rim[(i + 1) % len(rim)])))
    return canonical_edges(edges, n)


#: Registry used by the experiment harness to build topologies by name.
#: Builders take ``(n, rng)``; deterministic ones ignore ``rng``.
TOPOLOGY_BUILDERS: Dict[str, Callable[[int, np.random.Generator], np.ndarray]] = {
    "line": lambda n, rng: line_graph(n),
    "ring": lambda n, rng: ring_graph(n),
    "star": lambda n, rng: star_graph(n),
    "complete": lambda n, rng: complete_graph(n),
    "binary_tree": lambda n, rng: binary_tree_graph(n),
    "random_tree": random_tree_graph,
    "hypercube": lambda n, rng: hypercube_graph(n),
    "grid": lambda n, rng: grid_graph(n),
    "torus": lambda n, rng: grid_graph(n, torus=True),
    "expander": lambda n, rng: random_regular_expander(n, 4, rng),
    "barbell": lambda n, rng: barbell_graph(n),
    "wheel": lambda n, rng: wheel_graph(n),
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
