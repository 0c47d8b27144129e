"""Oblivious T-interval adversaries.

Each adversary here generates an infinite schedule that **satisfies
T-interval connectivity by construction**; the construction and its proof
sketch live in the class docstrings, and the test suite additionally
machine-checks prefixes of every adversary with
:func:`~repro.dynamics.verifier.verify_t_interval_connectivity`.

Determinism: the graph of round ``r`` is a pure function of
``(constructor arguments, r)`` — every round and window draws from its own
:class:`numpy.random.SeedSequence` stream of the seed, never from shared
mutable stream state — so schedules can be replayed by the verifier
without being stored.  :class:`OverlapHandoffAdversary` derives the PCG64
states of those same streams a span of keys at a time in array arithmetic
(:func:`_seed_states`).  It re-seeds one reused generator from them for
each window's backbone, and draws a span of rounds' churn outputs in one
array pass (:func:`_pcg64_raw`); both give exactly what a fresh
``SeedSequence`` generator per window and per round would.
"""

from __future__ import annotations

import functools
from typing import Callable, Hashable, Optional, Sequence, TypeVar

import numpy as np

from .._validate import require_nonnegative_int, require_positive_int
from ..errors import ConfigurationError
from .schedule import (STABLE_FOREVER, CSRAdjacency, FunctionSchedule,
                       GraphSchedule, _canonical_keys, _keys_to_edges,
                       _sorted_unique, build_csr, canonical_edges)
from .topologies import random_tree_graph

__all__ = [
    "StaticAdversary",
    "OverlapHandoffAdversary",
    "FreshSpanningAdversary",
    "AlternatingMatchingsAdversary",
    "random_noise_edges",
]


def _rng_for(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for a (seed, key...) coordinate."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    )


# numpy.random.SeedSequence's hash and mix constants, and PCG64's LCG
# multiplier (numpy/random/bit_generator.pyx, numpy/random/src/pcg64).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1
_MASK128 = (1 << 128) - 1

#: Consecutive stream keys whose states :class:`OverlapHandoffAdversary`
#: derives at once.
_STATE_SPAN = 256

#: Raw outputs per churn span of :class:`OverlapHandoffAdversary`: its
#: ``uint64`` temporaries stay cache-sized.
_CHURN_SPAN_OUTPUTS = 4096


def _seed_states(seed: int, k0: int, keys: Sequence[int]) -> np.ndarray:
    """``SeedSequence(entropy=seed, spawn_key=(k0, k)).generate_state(4,
    np.uint64)`` for every ``k`` in *keys* (each below ``2**32``).

    The assembled entropy is the seed's words zero-padded to the 4-word
    pool, then ``k0``, then ``k``.  SeedSequence mixes words in order, so
    ``SeedSequence(entropy=seed, spawn_key=(k0,))`` holds the pool every
    key continues from; its hash constant has advanced once per hashmix,
    four per entropy word.  The key word's four hashmix/mix steps and
    ``generate_state`` then run over all keys at once in ``uint32``
    arrays.  Returns one row of four ``uint64`` words per key; pass a
    row's words to :func:`_pcg64_state`.
    """
    prefix = np.random.SeedSequence(entropy=seed, spawn_key=(k0,))
    # The seed's words padded to the pool, then k0's one word.
    prefix_words = max(4, -(-seed.bit_length() // 32)) + 1
    c = np.array([_INIT_A * pow(_MULT_A, 4 * prefix_words + i, 1 << 32)
                  & _MASK32 for i in range(5)], dtype=np.uint32)[:, None]
    hashed = (np.asarray(keys, dtype=np.uint32) ^ c[:-1]) * c[1:]
    hashed ^= hashed >> np.uint32(16)
    mixed = (np.uint32(_MIX_MULT_L) * prefix.pool[:, None]
             - np.uint32(_MIX_MULT_R) * hashed)
    mixed ^= mixed >> np.uint32(16)
    # generate_state: eight words cycling over the pool.
    c = np.array([_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32
                  for i in range(9)], dtype=np.uint32)[:, None]
    out = (mixed[[0, 1, 2, 3, 0, 1, 2, 3]] ^ c[:-1]) * c[1:]
    out = (out ^ (out >> np.uint32(16))).astype(np.uint64)
    return (out[0::2] | (out[1::2] << np.uint64(32))).T


def _pcg64_state(words: Sequence[int]) -> dict:
    """The ``bit_generator.state`` of ``PCG64`` seeded with the four
    ``uint64`` *words* of :func:`_seed_states` (PCG64's ``srandom``)."""
    inc = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
    state = ((inc + (words[0] << 64 | words[1])) * _PCG64_MULT + inc
             ) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


_U32, _S32 = np.uint64(_MASK32), np.uint64(32)


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of each 128-bit product ``a * b`` of ``uint64``
    arrays, from products of their 32-bit halves."""
    a0, a1 = a & _U32, a >> _S32
    b0, b1 = b & _U32, b >> _S32
    # Neither partial sum can reach 2**64.
    t = a0 * b1 + (a0 * b0 >> _S32)
    u = a1 * b0 + (t & _U32)
    return a1 * b1 + (t >> _S32) + (u >> _S32)


def _mul128(a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray,
            b_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * b mod 2**128`` of 128-bit values held as ``uint64`` halves."""
    return _mulhi64(a_lo, b_lo) + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


@functools.lru_cache(maxsize=8)
def _jump_coefficients(count: int) -> tuple[np.ndarray, ...]:
    """``M**(k+2)`` and ``M**0 + … + M**(k+1)`` (mod ``2**128``, ``M`` the
    LCG multiplier) for ``k < count``, each as ``uint64`` hi and lo
    arrays: PCG64 seeded at ``x = initstate + inc`` is in state
    ``M**(k+2) * x + (M**0 + … + M**(k+1)) * inc`` when it serves its
    ``k``-th output."""
    power, total, coefficients = _PCG64_MULT, 1, []
    for _ in range(count):
        total = (total + power) & _MASK128
        power = power * _PCG64_MULT & _MASK128
        coefficients.append((power, total))
    return tuple(np.array([c[i] >> shift & _MASK64 for c in coefficients],
                          dtype=np.uint64)
                 for i in (0, 1) for shift in (64, 0))


def _pcg64_raw(words: np.ndarray, count: int) -> np.ndarray:
    """``PCG64`` seeded with each row of :func:`_seed_states` *words*:
    the first *count* ``random_raw`` outputs, one row per key.

    Each output jumps straight to its state (PCG64's ``srandom``, then
    :func:`_jump_coefficients`) in ``uint64`` hi/lo arithmetic, then
    applies PCG64's XSL-RR output function: the state's two halves
    xored, rotated right by its top six bits.
    """
    one = np.uint64(1)
    inc_hi = (words[:, 2:3] << one) | (words[:, 3:4] >> np.uint64(63))
    inc_lo = (words[:, 3:4] << one) | one
    x_lo = words[:, 1:2] + inc_lo
    x_hi = words[:, 0:1] + inc_hi + (x_lo < inc_lo)
    a_hi, a_lo, b_hi, b_lo = _jump_coefficients(count)
    p_hi, p_lo = _mul128(x_hi, x_lo, a_hi, a_lo)
    q_hi, q_lo = _mul128(inc_hi, inc_lo, b_hi, b_lo)
    lo = p_lo + q_lo
    hi = p_hi + q_hi + (lo < p_lo)
    rot = hi >> np.uint64(58)
    xored = hi ^ lo
    return (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))


def _raw_words(raw: np.ndarray) -> np.ndarray:
    """The 32-bit words PCG64 serves from ``random_raw`` output, low half
    of each 64-bit output first, along the last axis."""
    return raw.astype("<u8", copy=False).view("<u4")


def _lemire(words: np.ndarray, bound: object) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(0, bound)`` from one 32-bit word per value.

    NumPy's Lemire rule: ``m = word * bound``, the value is ``m >> 32``,
    and the word is rejected (and another drawn) while
    ``m & 0xFFFFFFFF < (2**32 - bound) % bound``.  Returns the values and,
    per row of *words*, whether any word of the row would be rejected:
    such a row's values, and every later draw from its stream, differ
    from NumPy's, so callers redraw it.  Bounds below ``2**31`` keep
    ``m`` within ``int64``.
    """
    m = words.astype(np.int64) * bound
    threshold = ((1 << 32) - bound) % bound
    return m >> 32, ((m & _MASK32) < threshold).any(axis=-1)


_V = TypeVar("_V")


def _memo(cache: dict, key: Hashable, limit: int, make: Callable[[], _V]) -> _V:
    """``cache[key]``, made by *make* on a miss; the oldest entry goes
    once *cache* holds *limit*."""
    value = cache.get(key)
    if value is None:
        value = make()
        if len(cache) >= limit:
            cache.pop(next(iter(cache)))
        cache[key] = value
    return value


def random_noise_edges(n: int, count: int,
                       rng: np.random.Generator) -> np.ndarray:
    """*count* uniform random distinct non-loop pairs (may duplicate backbone).

    Duplicates with other edge sets are harmless: schedules canonicalise
    unions with :func:`~repro.dynamics.schedule.canonical_edges`.
    """
    require_positive_int(n, "n")
    require_nonnegative_int(count, "count")
    if count == 0 or n < 2:
        return np.empty((0, 2), dtype=np.int32)
    u, v = _noise_draws(n, count, rng)
    return np.stack([u, _skip_self(u, v)], axis=1).astype(np.int32)


def _noise_draws(n: int, count: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The endpoint draws behind :func:`random_noise_edges`: ``u`` over
    all ``n`` nodes and ``v`` over the ``n - 1`` others, before
    :func:`_skip_self` maps ``v`` past ``u``."""
    return rng.integers(0, n, size=count), rng.integers(0, n - 1, size=count)


def _skip_self(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Map ``v`` past ``u``, avoiding self-loops uniformly."""
    return np.where(v >= u, v + 1, v)


class StaticAdversary(GraphSchedule):
    """The same graph every round.

    A static connected graph is T-interval connected for **every** T
    (``interval=None``), and realises the worst case ``d = diameter`` —
    e.g. the static line that forces the ``Ω(N)`` lower bound discussed
    in DESIGN.md §1.
    """

    def __init__(self, num_nodes: int, edges: object) -> None:
        fixed = canonical_edges(edges, num_nodes)
        super().__init__(num_nodes, interval=None)
        self.fixed_edges = fixed

    def edges(self, round_index: int) -> np.ndarray:
        require_positive_int(round_index, "round_index")
        return self.fixed_edges

    def stable_until(self, round_index: int) -> int:
        return STABLE_FOREVER


class OverlapHandoffAdversary(GraphSchedule):
    """Exactly-T-interval adversary: a fresh backbone per T-round window,
    handed off with a (T-1)-round overlap.

    Construction.  Partition rounds into windows ``w = 0, 1, …`` of length
    ``T`` (window ``w`` covers rounds ``wT+1 .. (w+1)T``).  Each window has
    its own random spanning backbone ``B_w``.  Round ``r`` in window ``w``
    carries ``B_w``; additionally, the **last T-1 rounds** of window ``w``
    also carry ``B_{w+1}``; plus optional per-round churn edges.

    Why this satisfies T-interval connectivity.  Any ``T`` consecutive
    rounds ``[r, r+T-1]`` touch at most two windows ``w, w+1``.  If they
    lie within one window, their intersection contains that window's
    backbone.  Otherwise the rounds taken from window ``w`` are its last
    ``c ≤ T-1`` rounds, which by construction all carry ``B_{w+1}``; the
    rounds from window ``w+1`` carry ``B_{w+1}`` too — so the intersection
    contains the connected spanning ``B_{w+1}``.  ∎

    Because consecutive backbones are independent random spanning trees,
    windows of length ``> 2T`` generally have **no** common spanning
    subgraph: the promise is *exactly* T, which is what the paper's
    "constant T" experiments need.

    Each backbone is a uniform random recursive tree with a random node
    relabelling (so the tree's *shape and placement* both vary), drawn
    from the ``(seed, 0, w)`` stream as :func:`_relabeled_random_tree`
    draws it; round ``r``'s churn comes from the ``(seed, 1, r)`` stream
    as :func:`random_noise_edges` draws it.

    Parameters
    ----------
    num_nodes, T:
        Model parameters; ``T >= 1``.  For ``T = 1`` there is no overlap
        and every round is an independent random backbone.
    noise_edges:
        Per-round uniform random extra edges.
    seed:
        Determinism root.
    """

    def __init__(self, num_nodes: int, T: int, noise_edges: int = 0,
                 seed: int = 0) -> None:
        self.T = require_positive_int(T, "T")
        self.noise_edges = require_nonnegative_int(noise_edges, "noise_edges")
        self.seed = require_nonnegative_int(seed, "seed")
        # (window, handoff) -> sorted packed keys of B_w (∪ B_{w+1})
        self._keys_cache: dict[tuple[int, bool], np.ndarray] = {}
        # One generator, re-seeded at the start of each backbone stream
        # it draws, from stream states derived _STATE_SPAN keys at a time.
        self._rng = np.random.Generator(np.random.PCG64(0))
        self._state_spans: dict[tuple[int, int], np.ndarray] = {}
        # Churn is drawn a span of rounds at a time (a power of two
        # dividing _STATE_SPAN): first round of a span -> its rounds' raw
        # churn outputs.
        self._churn_span = _STATE_SPAN
        while (self._churn_span > 16 and self._churn_span * self.noise_edges
               > _CHURN_SPAN_OUTPUTS):
            self._churn_span //= 2
        self._churn_spans: dict[int, np.ndarray] = {}
        super().__init__(num_nodes, interval=self.T)
        # Noisy rounds are generated in blocks of consecutive rounds.
        # Blocks grow from 8 rounds to a cap that shrinks with n, so short
        # large-n runs draw few rounds they never use.
        self._blocks: list[_RoundBlock] = []
        self._block_cap = min(64, max(8, 2048 // self.num_nodes))

    def stable_until(self, round_index: int) -> int:
        # Rounds 2..T of a window all carry B_w ∪ B_{w+1}; round 1 carries
        # only B_w.  Churn edges break per-round stability entirely.
        if self.noise_edges or self.T == 1:
            return round_index
        pos_in_window = (round_index - 1) % self.T
        if pos_in_window == 0:
            return round_index
        return ((round_index - 1) // self.T + 1) * self.T

    def edges(self, round_index: int) -> np.ndarray:
        require_positive_int(round_index, "round_index")
        if self.noise_edges:
            return self._block(round_index).edges(round_index)
        w, pos_in_window = divmod(round_index - 1, self.T)
        return _keys_to_edges(self._base_keys(w, pos_in_window > 0),
                              self.num_nodes)

    def _build_adjacency(self, round_index: int,
                         edge_arr: np.ndarray) -> CSRAdjacency:
        if self.noise_edges:
            return self._block(round_index).csr(round_index)
        return super()._build_adjacency(round_index, edge_arr)

    def _stream(self, k0: int, k: int) -> np.random.Generator:
        """A generator at the start of the ``(seed, k0, k)`` stream.

        Draws what ``_rng_for(seed, k0, k)`` draws, from the one reused
        generator; its state comes from a cached span of
        :func:`_seed_states`.
        """
        if k > _MASK32:
            return _rng_for(self.seed, k0, k)
        first = k - k % _STATE_SPAN
        self._rng.bit_generator.state = _pcg64_state(
            self._states(k0, first)[k - first].tolist())
        return self._rng

    def _states(self, k0: int, first: int) -> np.ndarray:
        """:func:`_seed_states` of the :data:`_STATE_SPAN` keys from
        *first*, a multiple of that span; up to four spans are kept."""
        return _memo(self._state_spans, (k0, first), 4, lambda: _seed_states(
            self.seed, k0, np.arange(first, first + _STATE_SPAN)))

    def _churn_raw(self, start: int, stop: int) -> np.ndarray:
        """The first ``noise_edges`` ``random_raw`` outputs of the
        ``(seed, 1, r)`` stream of every round ``start .. stop-1``, one
        row per round.

        Rows come from cached spans of consecutive rounds, each drawn in
        one :func:`_pcg64_raw` pass; keys of ``2**32`` and up take
        ``SeedSequence`` itself.
        """
        c, size, rows, r = self.noise_edges, self._churn_span, [], start
        while r < stop:
            if r > _MASK32:
                rows.append(_rng_for(self.seed, 1, r).bit_generator
                            .random_raw(c)[None])
                r += 1
                continue
            first = r - r % size
            base = first - first % _STATE_SPAN
            span = _memo(self._churn_spans, first, 2, lambda: _pcg64_raw(
                self._states(1, base)[first - base:first - base + size], c))
            end = min(stop, first + size)
            rows.append(span[r - first:end - first])
            r = end
        return np.concatenate(rows)

    def _backbone_keys(self, first: int, stop: int) -> np.ndarray:
        """Packed keys of backbones ``B_first .. B_{stop-1}``, one
        (unsorted) row per window.

        Each window's stream serves ``_relabeled_random_tree``'s draws:
        one word per parent of children ``2 .. n-1`` (child 1's bound of 1
        takes no word), then the relabelling permutation.  The parents
        are bounded from the words for every window at once; a window
        whose words NumPy would reject is redrawn by the reference.
        """
        n = self.num_nodes
        if n == 1:
            return np.empty((stop - first, 0), dtype=np.int64)
        # With an odd word count, integers() leaves the last output's
        # high half buffered for the permutation, as the reference does.
        draws = np.empty((stop - first, n - 2 if n % 2 else n // 2 - 1),
                         dtype=np.uint32 if n % 2 else np.uint64)
        perm = np.empty((stop - first, n), dtype=np.int64)
        for i, w in enumerate(range(first, stop)):
            rng = self._stream(0, w)
            draws[i] = (rng.integers(0, 1 << 32, size=n - 2, dtype=np.uint32)
                        if n % 2 else rng.bit_generator.random_raw(n // 2 - 1))
            perm[i] = rng.permutation(n)
        parents = np.zeros((stop - first, n - 1), dtype=np.int64)
        parents[:, 1:], rejected = _lemire(
            draws if n % 2 else _raw_words(draws), np.arange(2, n))
        a = np.take_along_axis(perm, parents, 1)
        b = perm[:, 1:]
        keys = np.minimum(a, b) * n + np.maximum(a, b)
        for i in np.flatnonzero(rejected):
            keys[i] = _canonical_keys(_relabeled_random_tree(
                n, _rng_for(self.seed, 0, first + int(i))), n)
        return keys

    def _churn_keys(self, start: int, length: int) -> np.ndarray:
        """Packed churn keys of rounds ``start .. start+length-1``, one row
        per round.

        Each round's stream serves :func:`_noise_draws`' words: ``c`` for
        ``u`` and then ``c`` for ``v``, the round's first ``c`` raw
        outputs (:meth:`_churn_raw`).  Both are bounded for every round
        at once; a round whose words NumPy would reject is redrawn by the
        reference.
        """
        n, c = self.num_nodes, self.noise_edges
        words = _raw_words(self._churn_raw(start, start + length))
        u, u_rejected = _lemire(words[:, :c], n)
        v, v_rejected = _lemire(words[:, c:], n - 1)
        for i in np.flatnonzero(u_rejected | v_rejected):
            u[i], v[i] = _noise_draws(
                n, c, _rng_for(self.seed, 1, start + int(i)))
        v = _skip_self(u, v)
        return np.minimum(u, v) * n + np.maximum(u, v)

    def _base_keys(self, window: int, handoff: bool) -> np.ndarray:
        """Sorted packed keys (``u * n + v``) of ``B_w``, or of
        ``B_w ∪ B_{w+1}`` for a handoff round; memoized per window."""
        def make() -> np.ndarray:
            if handoff:
                return _sorted_unique(np.concatenate([
                    self._base_keys(window, False),
                    self._base_keys(window + 1, False)]))
            return np.sort(self._backbone_keys(window, window + 1)[0])
        return _memo(self._keys_cache, (window, handoff), 16, make)

    def _block(self, round_index: int) -> "_RoundBlock":
        """The generated block holding *round_index* (at most two kept)."""
        for block in reversed(self._blocks):
            if block.start <= round_index < block.stop:
                return block
        # Sequential access doubles the block length up to the cap; a
        # jump starts again from 8 rounds.
        length = 8
        if self._blocks and self._blocks[-1].stop == round_index:
            last = self._blocks[-1]
            length = min(2 * (last.stop - last.start), self._block_cap)
        block = self._generate_block(round_index, length)
        self._blocks = self._blocks[-1:] + [block]
        return block

    def _generate_block(self, start: int, length: int) -> "_RoundBlock":
        """Rounds ``start .. start+length-1`` with churn, in one pass.

        The block's backbones and churn are drawn as arrays; one sort
        over ``round * n² + key`` then dedupes and orders every round's
        backbone, handoff backbone and churn edges at once.
        """
        n = self.num_nodes
        offset = np.arange(length, dtype=np.int64) * (np.int64(n) * n)
        window, pos_in_window = np.divmod(
            np.arange(start - 1, start - 1 + length), self.T)
        handoff = pos_in_window > 0
        first = int(window[0])
        backbones = self._backbone_keys(
            first, int(window[-1] + handoff[-1]) + 1)
        packed = [backbones[window - first] + offset[:, None],
                  backbones[window[handoff] + 1 - first]
                  + offset[handoff, None]]
        if n > 1:
            packed.append(self._churn_keys(start, length) + offset[:, None])
        return _RoundBlock(start, length, n, _sorted_unique(
            np.concatenate([p.ravel() for p in packed])))


class _RoundBlock:
    """Read-only edges and CSR of consecutive rounds ``start .. stop-1``,
    from their sorted ``round * n² + key`` packed keys."""

    __slots__ = ("start", "stop", "num_nodes", "_owner", "_edges",
                 "_edge_bounds", "_indptr", "_indices", "_index_bounds")

    def __init__(self, start: int, length: int, num_nodes: int,
                 packed: np.ndarray) -> None:
        self.start = start
        self.stop = start + length
        self.num_nodes = num_nodes
        nn = np.int64(num_nodes) * num_nodes
        self._owner = packed // nn
        self._edges = _keys_to_edges(packed - self._owner * nn, num_nodes)
        self._edge_bounds = np.searchsorted(
            self._owner, np.arange(length + 1)).tolist()
        self._indptr: Optional[np.ndarray] = None

    def edges(self, round_index: int) -> np.ndarray:
        i = round_index - self.start
        return self._edges[self._edge_bounds[i]:self._edge_bounds[i + 1]]

    def csr(self, round_index: int) -> CSRAdjacency:
        if self._indptr is None:
            self._build_csr()
        i = round_index - self.start
        return CSRAdjacency(
            self._indptr[i],
            self._indices[self._index_bounds[i]:self._index_bounds[i + 1]],
            self.num_nodes)

    def _build_csr(self) -> None:
        """Every round's CSR at once, built on first use: the block's
        rounds as one block-diagonal graph whose round ``i`` owns nodes
        ``i*n .. i*n+n-1``."""
        n = self.num_nodes
        whole = build_csr(self._edges + (self._owner * n)[:, None],
                          (self.stop - self.start) * n)
        starts = np.arange(self.stop - self.start) * n
        indptr = whole.indptr[starts[:, None] + np.arange(n + 1)] \
            - whole.indptr[starts][:, None]
        indices = (whole.indices % n).astype(np.int32, copy=False)
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self._indptr, self._indices = indptr, indices
        self._index_bounds = whole.indptr[starts].tolist() + [len(indices)]


def _relabeled_random_tree(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random recursive tree composed with a random node relabelling.

    Draws the identical RNG stream as ``random_tree_graph`` followed by
    a permutation, but skips the tree's internal canonicalisation — the
    relabelling scrambles the ordering anyway, and callers canonicalise
    the result, so the produced edge set is unchanged.  It is the
    reference :meth:`OverlapHandoffAdversary._backbone_keys` computes
    block-wide, and redraws a window with when a word is rejected.
    """
    if n == 1:
        return random_tree_graph(n, rng)
    child = np.arange(1, n)
    parent = rng.integers(0, child)
    tree = np.stack([parent, child], axis=1)
    perm = rng.permutation(n)
    return perm[tree]


class FreshSpanningAdversary(FunctionSchedule):
    """A completely fresh random spanning structure every round (T = 1).

    Each round is an independent random Hamiltonian path over a random
    permutation of the nodes, plus optional churn edges.  Only 1-interval
    connectivity is promised; empirically the flooding time is
    ``O(log N)`` w.h.p. because the per-round randomness mixes information
    like a gossip process — this is the evaluation's "maximally dynamic
    yet low-``d``" instance.
    """

    def __init__(self, num_nodes: int, noise_edges: int = 0,
                 seed: int = 0) -> None:
        self.noise_edges = require_nonnegative_int(noise_edges, "noise_edges")
        self.seed = require_nonnegative_int(seed, "seed")

        def fn(r: int) -> np.ndarray:
            rng = _rng_for(self.seed, r)
            perm = rng.permutation(num_nodes)
            path = np.stack([perm[:-1], perm[1:]], axis=1) if num_nodes > 1 \
                else np.empty((0, 2), dtype=np.int32)
            if self.noise_edges:
                noise = random_noise_edges(num_nodes, self.noise_edges, rng)
                return np.concatenate([path, noise])
            return path

        super().__init__(num_nodes, fn, interval=1)


class AlternatingMatchingsAdversary(FunctionSchedule):
    """A ring whose odd/even edge sets alternate round parity, on a stable cycle.

    Round ``2k+1`` carries the full ring; round ``2k`` carries the full
    ring **minus one rotating edge** — the classic minimal example of a
    graph sequence that is connected every round but never stabilises.
    Because the surviving ``n-1`` ring edges always form a spanning path,
    every round is connected (T=1), and any two consecutive rounds share
    a spanning path, making the schedule 2-interval connected as well
    (``interval=2``).

    Requires ``num_nodes >= 3``.
    """

    def __init__(self, num_nodes: int, seed: int = 0) -> None:
        if num_nodes < 3:
            raise ConfigurationError(
                f"AlternatingMatchingsAdversary requires n >= 3, got {num_nodes}")
        idx = np.arange(num_nodes)
        ring = np.stack([idx, (idx + 1) % num_nodes], axis=1)

        def fn(r: int) -> np.ndarray:
            if r % 2 == 1:
                return ring
            drop = (r // 2) % num_nodes
            keep = np.ones(num_nodes, dtype=bool)
            keep[drop] = False
            return ring[keep]

        super().__init__(num_nodes, fn, interval=2)
