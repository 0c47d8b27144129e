"""Deterministic random-stream management.

Every randomised component of the library draws from a
:class:`numpy.random.Generator` obtained through an :class:`RngRegistry`.
The registry derives independent child streams from a single root seed via
:class:`numpy.random.SeedSequence`, keyed by a *component name* and an
optional *node id*.  Two consequences:

1. a whole experiment is reproducible from one integer seed, and
2. adding a new randomised component (or reordering draws inside one
   component) does not perturb the streams of the others — each key hashes
   to its own independent stream.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._validate import require_nonnegative_int

__all__ = ["RngRegistry", "NodeStreams"]


def _key_entropy(name: str) -> int:
    """Stable 32-bit entropy derived from a component name.

    ``zlib.crc32`` is used instead of ``hash()`` because the latter is
    salted per process and would destroy reproducibility across runs.
    """
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


class RngRegistry:
    """Factory of independent, reproducible random generators.

    Parameters
    ----------
    seed:
        Root seed of the experiment.  Equal seeds yield identical streams
        for every ``(component, node)`` key, on every platform.

    Examples
    --------
    >>> reg = RngRegistry(7)
    >>> g1 = reg.for_component("adversary")
    >>> g2 = reg.for_node("sketch", 13)
    >>> reg2 = RngRegistry(7)
    >>> bool((reg2.for_node("sketch", 13).integers(1 << 30, size=4)
    ...       == g2.integers(1 << 30, size=4)).all())
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = require_nonnegative_int(seed, "seed")
        self._root = np.random.SeedSequence(self._seed)
        self._cache: Dict[Tuple[str, int], np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this registry was constructed with."""
        return self._seed

    def for_component(self, name: str) -> np.random.Generator:
        """Return the generator for a library component (e.g. an adversary).

        Repeated calls with the same name return the *same* generator
        object, so sequential draws continue a single stream.
        """
        return self._get(name, -1)

    def for_node(self, component: str, node_id: int) -> np.random.Generator:
        """Return the generator for (*component*, *node_id*).

        Streams for different nodes are mutually independent, which models
        each node holding its own private coin.
        """
        require_nonnegative_int(node_id, "node_id")
        return self._get(component, node_id)

    def _get(self, name: str, node_id: int) -> np.random.Generator:
        key = (name, node_id)
        gen = self._cache.get(key)
        if gen is None:
            seq = np.random.SeedSequence(
                entropy=self._seed,
                spawn_key=(_key_entropy(name), node_id + 1),
            )
            gen = np.random.default_rng(seq)
            self._cache[key] = gen
        return gen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self._seed}, streams={len(self._cache)})"


class NodeStreams:
    """The per-node generators of one component, each made on first read.

    ``streams[i]`` is ``registry.for_node(component, ids[i])``, created
    the first time index *i* is read (a stream is keyed only by the
    registry's seed, the component and the id, so when it is created
    changes no draw).  A population whose algorithm never draws from its
    private coins never pays for building them.  Supports ``len``,
    integer indexing and iteration (which creates every stream).
    """

    __slots__ = ("_registry", "_component", "_ids", "_gens")

    def __init__(self, registry: RngRegistry, component: str,
                 ids: Sequence[int]) -> None:
        self._registry = registry
        self._component = component
        self._ids = list(ids)
        self._gens: List[Optional[np.random.Generator]] = [None] * len(ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, i: int) -> np.random.Generator:
        gen = self._gens[i]
        if gen is None:
            gen = self._registry.for_node(self._component, self._ids[i])
            self._gens[i] = gen
        return gen
