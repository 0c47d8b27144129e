"""Edge-churn and mobility models with a machine-checkable T-interval promise.

Two realistic-flavoured dynamics used by the evaluation's robustness
experiments:

* :class:`EdgeChurnAdversary` — a stable spanning backbone plus a pool of
  candidate edges that blink on and off with a configurable dwell time
  (modelling flaky wireless links);
* :class:`RepairedMobilityAdversary` — nodes follow smooth deterministic
  trajectories in the unit square and connect within a radio radius, with
  a per-window spanning backbone (handed off with overlap, as in
  :class:`~repro.dynamics.interval.OverlapHandoffAdversary`) "repairing"
  the geometric graph so the T-interval promise provably holds even when
  the radio graph momentarily disconnects.  This is the substitution for
  real mobility traces documented in DESIGN.md §4.

Both are pure functions of the round index, hence replayable/verifiable.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .._validate import (
    require_nonnegative_int,
    require_positive_float,
    require_positive_int,
    require_probability,
)
from .interval import _rng_for
from .schedule import FunctionSchedule, canonical_edges

__all__ = ["EdgeChurnAdversary", "RepairedMobilityAdversary"]


class EdgeChurnAdversary(FunctionSchedule):
    """Stable backbone + blinking candidate edges.

    Each candidate edge ``e`` is independently *on* during round ``r``
    with probability ``p_on``, re-drawn once per *dwell* block
    (``r // dwell``), so links stay up/down for ``dwell`` consecutive
    rounds on average — a pure function of ``(seed, e, r // dwell)``.
    The backbone keeps the schedule T-interval connected for every T.

    Parameters
    ----------
    num_nodes:
        Number of nodes.
    backbone:
        Connected spanning edge set, always present.
    candidates:
        Pool of edges that churn; defaults to ``3 * num_nodes`` uniform
        random pairs drawn once from *seed*.
    p_on:
        Per-block probability a candidate is up.
    dwell:
        Block length in rounds.
    seed:
        Determinism root.
    """

    def __init__(self, num_nodes: int, backbone: object,
                 candidates: Optional[object] = None,
                 p_on: float = 0.5, dwell: int = 4, seed: int = 0) -> None:
        self.backbone = canonical_edges(backbone, num_nodes)
        self.p_on = require_probability(p_on, "p_on")
        self.dwell = require_positive_int(dwell, "dwell")
        self.seed = require_nonnegative_int(seed, "seed")
        if candidates is None:
            rng = _rng_for(self.seed, 0)
            m = 3 * num_nodes
            u = rng.integers(0, num_nodes, size=m)
            v = rng.integers(0, num_nodes - 1, size=m) if num_nodes > 1 \
                else np.zeros(m, dtype=np.int64)
            v = np.where(v >= u, v + 1, v)
            candidates = np.stack([u, v], axis=1)
        self.candidates = canonical_edges(candidates, num_nodes)

        def fn(r: int) -> np.ndarray:
            block = r // self.dwell
            rng = _rng_for(self.seed, 1, block)
            mask = rng.random(len(self.candidates)) < self.p_on
            return np.concatenate([self.backbone, self.candidates[mask]])

        super().__init__(num_nodes, fn, interval=None)

    def stable_until(self, round_index: int) -> int:
        # The candidate on/off mask is re-drawn once per dwell block
        # (block = r // dwell), so the graph holds to the block's end.
        return (round_index // self.dwell) * self.dwell + self.dwell - 1


class RepairedMobilityAdversary(FunctionSchedule):
    """Unit-disk graph over smoothly moving nodes, repaired per window.

    Trajectories.  Node ``i`` moves on a deterministic Lissajous-style
    orbit::

        x_i(r) = 0.5 + a_i · sin(2π (f_i r / period + φ_i))
        y_i(r) = 0.5 + b_i · cos(2π (g_i r / period + ψ_i))

    with per-node random amplitudes/frequencies/phases drawn once from
    *seed* — a pure function of ``r`` (unlike a random walk), so the
    schedule is replayable.

    Connectivity repair.  The raw unit-disk graph (edges between nodes
    within ``radius``) may momentarily disconnect; to uphold the paper's
    adversary promise we overlay, per window of ``T`` rounds, a spanning
    *backbone path* visiting nodes in the order of a space-filling sort
    (by ``x`` then ``y``) of their positions at the window's first round,
    handed off with a ``T-1``-round overlap exactly as in
    :class:`~repro.dynamics.interval.OverlapHandoffAdversary` — hence
    T-interval connectivity holds by the same proof.

    This substitutes for real mobility traces: it exercises the same code
    path (geometric neighbourhoods drifting continuously, plus a promise-
    preserving backbone) without proprietary data.
    """

    def __init__(self, num_nodes: int, T: int = 2, radius: float = 0.25,
                 period: int = 200, seed: int = 0) -> None:
        self.T = require_positive_int(T, "T")
        self.radius = require_positive_float(radius, "radius")
        self.period = require_positive_int(period, "period")
        self.seed = require_nonnegative_int(seed, "seed")
        rng = _rng_for(self.seed, 0)
        self._amp = rng.uniform(0.15, 0.45, size=(num_nodes, 2))
        self._freq = rng.integers(1, 4, size=(num_nodes, 2)).astype(float)
        self._phase = rng.uniform(0.0, 1.0, size=(num_nodes, 2))
        self._backbone_cache: dict[int, np.ndarray] = {}

        def fn(r: int) -> np.ndarray:
            pos = self.positions(r)
            geo = self._disk_edges(pos)
            w = (r - 1) // self.T
            parts = [geo, self._window_backbone(w)]
            if self.T > 1 and (r - 1) % self.T >= 1:
                parts.append(self._window_backbone(w + 1))
            return np.concatenate([p for p in parts if p.size],
                                  axis=0) if any(p.size for p in parts) \
                else np.empty((0, 2), dtype=np.int32)

        super().__init__(num_nodes, fn, interval=self.T)

    def positions(self, round_index: int) -> np.ndarray:
        """(n, 2) node positions at 1-based *round_index*."""
        t = round_index / self.period
        ang_x = 2 * math.pi * (self._freq[:, 0] * t + self._phase[:, 0])
        ang_y = 2 * math.pi * (self._freq[:, 1] * t + self._phase[:, 1])
        x = 0.5 + self._amp[:, 0] * np.sin(ang_x) * 0.9
        y = 0.5 + self._amp[:, 1] * np.cos(ang_y) * 0.9
        return np.stack([x, y], axis=1)

    def _disk_edges(self, pos: np.ndarray) -> np.ndarray:
        diff = pos[:, None, :] - pos[None, :, :]
        dist2 = (diff ** 2).sum(axis=2)
        iu = np.triu_indices(len(pos), k=1)
        close = dist2[iu] <= self.radius ** 2
        return np.stack([iu[0][close], iu[1][close]], axis=1).astype(np.int32)

    def _window_backbone(self, window: int) -> np.ndarray:
        cached = self._backbone_cache.get(window)
        if cached is None:
            first_round = window * self.T + 1
            pos = self.positions(first_round)
            order = np.lexsort((pos[:, 1], pos[:, 0]))
            cached = np.stack([order[:-1], order[1:]], axis=1).astype(np.int32) \
                if len(order) > 1 else np.empty((0, 2), dtype=np.int32)
            if len(self._backbone_cache) > 8:
                self._backbone_cache.pop(next(iter(self._backbone_cache)))
            self._backbone_cache[window] = cached
        return cached
