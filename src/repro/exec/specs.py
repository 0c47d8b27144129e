"""Declarative, picklable trial specifications.

A :class:`TrialSpec` is plain data: registered builder *names* plus
JSON-serializable parameter dicts.  It is the only way to describe a
trial, and it buys three properties:

1. **process mobility** — a spec pickles cleanly, so trials can be
   shipped to worker processes by the
   :class:`~repro.exec.executor.ParallelExecutor`;
2. **content addressing** — :meth:`TrialSpec.key` hashes the canonical
   JSON encoding of the spec (plus seed and a code-version salt) into a
   stable cache key, the basis of :class:`~repro.exec.cache.ResultCache`;
3. **replayability** — a spec written to a file can be rebuilt and
   re-run bit-for-bit later (RNG derivation stays inside
   :class:`~repro.simnet.rng.RngRegistry`, never ambient).

Builder names resolve through three module-level registries — schedules,
node sets, and oracles — populated here with the builders the
reconstructed evaluation uses and extensible via the ``register_*``
decorators::

    from repro.exec import TrialSpec, register_nodes

    @register_nodes("my_nodes")
    def _my_nodes(schedule, seed, *, n):
        return [MyAlgorithm(i) for i in range(n)]

    spec = TrialSpec(schedule="fresh_spanning", schedule_params={"n": 16},
                     nodes="my_nodes", node_params={"n": 16},
                     max_rounds=4000, until="quiescent",
                     quiescence_window=32)

Custom builders must be registered in every process that executes the
spec; under the default ``fork`` start method on Linux workers inherit
the parent's registries, and the built-in builders below are registered
at import time in any case.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from .._validate import (require_choice, require_loss_rate,
                         require_positive_int)
from ..errors import ConfigurationError

__all__ = [
    "CODE_VERSION_SALT",
    "TrialSpec",
    "canonical_json",
    "register_schedule",
    "register_nodes",
    "register_oracle",
]

#: Version salt mixed into every cache key.  Bump whenever the semantics
#: of a builder, the simulator, or a core algorithm change in a way that
#: invalidates previously measured rows.
CODE_VERSION_SALT = "repro-exec-v2"

_UNTIL_CHOICES = ("halted", "decided", "quiescent")

# --------------------------------------------------------------------------
# builder registries
# --------------------------------------------------------------------------

ScheduleBuilder = Callable[..., object]          # (seed, **params) -> schedule
NodeBuilder = Callable[..., Sequence[Any]]       # (schedule, seed, **params)
OracleBuilder = Callable[..., bool]              # (outputs, schedule, **params)

_SCHEDULES: Dict[str, ScheduleBuilder] = {}
_NODES: Dict[str, NodeBuilder] = {}
_ORACLES: Dict[str, OracleBuilder] = {}


def _register(table: Dict[str, Any], kind: str, name: str):
    def deco(fn):
        if name in table:
            raise ConfigurationError(
                f"{kind} builder {name!r} is already registered")
        table[name] = fn
        return fn
    return deco


def register_schedule(name: str):
    """Decorator: register ``fn(seed, **params) -> schedule`` under *name*."""
    return _register(_SCHEDULES, "schedule", name)


def register_nodes(name: str):
    """Decorator: register ``fn(schedule, seed, **params) -> nodes``."""
    return _register(_NODES, "nodes", name)


def register_oracle(name: str):
    """Decorator: register ``fn(outputs, schedule, **params) -> bool``."""
    return _register(_ORACLES, "oracle", name)


def _lookup(table: Mapping[str, Any], kind: str, name: str):
    try:
        return table[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown {kind} builder {name!r}; registered: "
            f"{sorted(table)}") from None


# --------------------------------------------------------------------------
# canonical encoding + hashing
# --------------------------------------------------------------------------

def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace).

    Only plain JSON data is accepted — this is what makes spec hashes
    stable across processes and platforms.  numpy scalars, sets, and
    arbitrary objects are rejected so they cannot sneak platform- or
    process-dependent reprs into a cache key.
    """
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"spec parameters must be plain JSON data "
            f"(str/int/float/bool/None/list/dict): {exc}") from None


@dataclass(frozen=True)
class TrialSpec:
    """Everything needed to run one trial, as registry names + plain data.

    Attributes
    ----------
    schedule / schedule_params:
        Name of a registered schedule builder and its keyword params; the
        builder is called as ``builder(seed, **schedule_params)``.
    nodes / node_params:
        Name of a registered node-set builder, called as
        ``builder(schedule, seed, **node_params)``.
    max_rounds / until / quiescence_window / allow_timeout:
        Stop configuration, as in :meth:`repro.simnet.engine.Simulator.run`.
    loss_rate:
        The per-edge message-loss probability, as on
        :class:`~repro.simnet.engine.Simulator`.
    stop_when:
        Optional name of a stop predicate over the round index and the
        engine's progress vector (see ``_STOP_PREDICATES``), e.g.
        ``"dissemination_complete"``.
    schedule_seed:
        Seed for the schedule builder when it must differ from the
        trial seed (which still seeds the nodes' ``RngRegistry``);
        ``None`` uses the trial seed.
    oracle / oracle_params:
        Optional registered correctness oracle, called as
        ``oracle(outputs, schedule, **oracle_params)``.
    tags:
        Extra row columns (e.g. the grid point) merged into the result
        row by the executor.  Tags are **excluded** from the content
        address: two specs differing only in tags share one cache entry.
    """

    schedule: str
    nodes: str
    max_rounds: int
    schedule_params: Mapping[str, Any] = field(default_factory=dict)
    node_params: Mapping[str, Any] = field(default_factory=dict)
    until: str = "halted"
    quiescence_window: int = 1
    oracle: Optional[str] = None
    oracle_params: Mapping[str, Any] = field(default_factory=dict)
    allow_timeout: bool = False
    loss_rate: float = 0.0
    stop_when: Optional[str] = None
    schedule_seed: Optional[int] = None
    tags: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_positive_int(self.max_rounds, "max_rounds")
        require_choice(self.until, "until", _UNTIL_CHOICES)
        require_positive_int(self.quiescence_window, "quiescence_window")
        # Stored as the float it validates to, so that ``loss_rate=0``
        # and ``loss_rate=0.0`` share one content address.
        object.__setattr__(self, "loss_rate",
                           require_loss_rate(self.loss_rate, "loss_rate"))
        if self.stop_when is not None:
            require_choice(self.stop_when, "stop_when",
                           tuple(sorted(_STOP_PREDICATES)))
        # Fail fast on unhashable params (and tags, which enter rows).
        # The payload's canonical JSON is kept for key(), which the
        # executor calls for every cell on every run.
        object.__setattr__(self, "_payload_json",
                           canonical_json(self.payload()))
        canonical_json(dict(self.tags))

    # -- identity ----------------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        """The hashed portion of the spec (everything except ``tags``)."""
        out = dataclasses.asdict(self)
        out.pop("tags")
        return out

    def key(self, seed: int) -> str:
        """Stable content address of (spec, seed, code version).

        The sha256 of the canonical JSON of the spec payload plus the
        trial seed and :data:`CODE_VERSION_SALT`.  Equal on every
        platform and in every process for equal inputs — verified by the
        test suite across an actual process boundary.
        """
        # canonical_json({"spec": ..., "seed": ..., "salt": ...}) spelled
        # out, its keys in sorted order, around the memoised spec JSON.
        blob = (f'{{"salt":{canonical_json(CODE_VERSION_SALT)},'
                f'"seed":{int(seed)},'
                f'"spec":{self._payload_json}}}')
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable form for progress displays."""
        tag = ",".join(f"{k}={v}" for k, v in self.tags.items())
        return f"{self.nodes}/{self.schedule}" + (f"[{tag}]" if tag else "")

    # -- construction ------------------------------------------------------

    def with_tags(self, **tags: Any) -> "TrialSpec":
        """A copy with extra row tags merged in (new keys win)."""
        return dataclasses.replace(self, tags={**self.tags, **tags})

    # -- resolution (what run_trial executes) -----------------------------

    def build_schedule(self, seed: int):
        """The trial's schedule, from ``schedule_seed`` or else *seed*."""
        builder = _lookup(_SCHEDULES, "schedule", self.schedule)
        if self.schedule_seed is not None:
            seed = self.schedule_seed
        return builder(seed, **self.schedule_params)

    def build_nodes(self, schedule, seed: int) -> List[Any]:
        """The trial's node list."""
        builder = _lookup(_NODES, "nodes", self.nodes)
        return list(builder(schedule, seed, **self.node_params))

    def stop_predicate(self) -> Optional[Callable[[int, np.ndarray], bool]]:
        """The ``stop_when`` predicate, if any."""
        if self.stop_when is None:
            return None
        return _STOP_PREDICATES[self.stop_when]

    def judge(self, outputs: Mapping[int, Any], schedule) -> Optional[bool]:
        """The oracle's verdict on *outputs*; ``None`` without an oracle."""
        if self.oracle is None:
            return None
        oracle = _lookup(_ORACLES, "oracle", self.oracle)
        return bool(oracle(outputs, schedule, **self.oracle_params))


# --------------------------------------------------------------------------
# stop predicates (named by TrialSpec.stop_when)
# --------------------------------------------------------------------------

def _stop_dissemination_complete(round_index: int,
                                 progress: np.ndarray) -> bool:
    """Every node knows every token (pure dissemination time)."""
    from ..baselines.token import dissemination_complete

    return dissemination_complete(round_index, progress)


_STOP_PREDICATES: Dict[str, Callable[[int, np.ndarray], bool]] = {
    "dissemination_complete": _stop_dissemination_complete,
}


# --------------------------------------------------------------------------
# built-in schedule builders (the evaluation's adversaries)
# --------------------------------------------------------------------------

@register_schedule("lowdiam_handoff")
def _build_lowdiam(seed: int, *, n: int, T: int,
                   noise_edges: Optional[int] = None):
    """The evaluation's default low-``d`` T-interval adversary."""
    from ..dynamics import OverlapHandoffAdversary

    if noise_edges is None:
        noise_edges = max(1, n // 8)
    return OverlapHandoffAdversary(n, T, noise_edges=noise_edges, seed=seed)


@register_schedule("overlap_handoff")
def _build_overlap(seed: int, *, n: int, T: int, noise_edges: int = 0):
    from ..dynamics import OverlapHandoffAdversary

    return OverlapHandoffAdversary(n, T, noise_edges=noise_edges, seed=seed)


@register_schedule("fresh_spanning")
def _build_fresh(seed: int, *, n: int, noise_edges: int = 0):
    from ..dynamics import FreshSpanningAdversary

    return FreshSpanningAdversary(n, noise_edges=noise_edges, seed=seed)


@register_schedule("static")
def _build_static(seed: int, *, n: int, topology: str):
    """A static graph from :func:`repro.dynamics.build_topology`."""
    from ..dynamics import StaticAdversary, build_topology

    return StaticAdversary(
        n, build_topology(topology, n, np.random.default_rng(seed)))


@register_schedule("static_ring_of_cliques")
def _build_ring_of_cliques(seed: int, *, n: int, num_cliques: int):
    from ..dynamics import StaticAdversary, ring_of_cliques

    return StaticAdversary(n, ring_of_cliques(n, num_cliques))


@register_schedule("static_line")
def _build_static_line(seed: int, *, n: int):
    from ..dynamics import StaticAdversary, line_graph

    return StaticAdversary(n, line_graph(n))


@register_schedule("alternating_matchings")
def _build_alternating(seed: int, *, n: int):
    from ..dynamics import AlternatingMatchingsAdversary

    return AlternatingMatchingsAdversary(n)


@register_schedule("repaired_mobility")
def _build_mobility(seed: int, *, n: int, T: int = 2):
    from ..dynamics import RepairedMobilityAdversary

    return RepairedMobilityAdversary(n, T=T, seed=seed)


@register_schedule("windowed_throttle")
def _build_windowed_throttle(seed: int, *, n: int, T: int):
    from ..dynamics import WindowedThrottleAdversary

    return WindowedThrottleAdversary(n, T)


@register_schedule("cut_throttle")
def _build_cut_throttle(seed: int, *, n: int):
    from ..dynamics import CutThrottleAdversary

    return CutThrottleAdversary(n)


@register_schedule("edge_churn")
def _build_edge_churn(seed: int, *, n: int, tree_seed: int):
    """Edge churn over a random spanning-tree backbone.

    The backbone comes from ``default_rng(tree_seed)``, so every trial
    seed churns around the same tree.
    """
    from ..dynamics import EdgeChurnAdversary, random_tree_graph

    tree = random_tree_graph(n, np.random.default_rng(tree_seed))
    return EdgeChurnAdversary(n, tree, seed=seed)


# --------------------------------------------------------------------------
# built-in node-set builders (the evaluation's algorithms)
# --------------------------------------------------------------------------

def _modvalue(i: int, mult: int, mod: int) -> int:
    """The evaluation's deterministic node input for Max."""
    return (i * mult) % mod


@register_nodes("exact_count")
def _nodes_exact_count(schedule, seed: int, *, n: int,
                       initial_window: int = 1, window_growth: int = 2):
    from ..core.exact_count import ExactCount

    return [ExactCount(i, initial_window=initial_window,
                       window_growth=window_growth) for i in range(n)]


@register_nodes("exact_count_known_bound")
def _nodes_exact_count_known_bound(schedule, seed: int, *, n: int,
                                   rounds_bound: int):
    from ..core.exact_count import ExactCountKnownBound

    return [ExactCountKnownBound(i, rounds_bound=rounds_bound)
            for i in range(n)]


@register_nodes("approx_count_known_bound")
def _nodes_approx_count_known_bound(schedule, seed: int, *, n: int,
                                    rounds_bound: int, width: int):
    from ..core.approx_count import ApproxCountKnownBound

    return [ApproxCountKnownBound(i, rounds_bound=rounds_bound, width=width)
            for i in range(n)]


@register_nodes("approx_count")
def _nodes_approx_count(schedule, seed: int, *, n: int,
                        eps: float = 0.25, delta: float = 0.05):
    from ..core.approx_count import ApproxCount

    return [ApproxCount(i, eps=eps, delta=delta) for i in range(n)]


@register_nodes("hybrid_count")
def _nodes_hybrid_count(schedule, seed: int, *, n: int):
    from ..core.hybrid_count import HybridCount

    return [HybridCount(i) for i in range(n)]


@register_nodes("klo_count")
def _nodes_klo_count(schedule, seed: int, *, n: int,
                     initial_guess: int = 1, guess_growth: int = 2):
    from ..baselines.klo import KCommitteeCount

    return [KCommitteeCount(i, initial_guess=initial_guess,
                            guess_growth=guess_growth) for i in range(n)]


@register_nodes("token_dissemination")
def _nodes_token(schedule, seed: int, *, n: int,
                 known_count: bool = True):
    from ..baselines.token import RandomTokenDissemination

    target = n if known_count else None
    return [RandomTokenDissemination(i, target_count=target)
            for i in range(n)]


@register_nodes("sublinear_max_modvalue")
def _nodes_max(schedule, seed: int, *, n: int,
               mult: int = 37, mod: int = 1009):
    from ..core.max_compute import SublinearMax

    return [SublinearMax(i, _modvalue(i, mult, mod)) for i in range(n)]


@register_nodes("sublinear_consensus")
def _nodes_consensus(schedule, seed: int, *, n: int, prefix: str = "p"):
    from ..core.consensus import SublinearConsensus

    return [SublinearConsensus(i, f"{prefix}{i}") for i in range(n)]


@register_nodes("pipelined_approx_count")
def _nodes_pipelined_approx(schedule, seed: int, *, n: int,
                            words_per_message: int = 4, width: int = 40,
                            strategy: str = "tdm"):
    from ..core.pipelining import PipelinedApproxCount

    return [PipelinedApproxCount(i, words_per_message=words_per_message,
                                 width=width, strategy=strategy)
            for i in range(n)]


@register_nodes("pipelined_exact_count")
def _nodes_pipelined_exact(schedule, seed: int, *, n: int,
                           ids_per_message: int = 4):
    from ..core.pipelined_exact import PipelinedExactCount

    return [PipelinedExactCount(i, ids_per_message=ids_per_message)
            for i in range(n)]


# --------------------------------------------------------------------------
# built-in oracles
# --------------------------------------------------------------------------

@register_oracle("count_exact")
def _oracle_count(outputs, schedule) -> bool:
    n = schedule.num_nodes
    return len(outputs) == n and all(v == n for v in outputs.values())


@register_oracle("count_approx")
def _oracle_count_approx(outputs, schedule, *, eps: float) -> bool:
    n = schedule.num_nodes
    return (len(outputs) == n
            and all(abs(v / n - 1.0) <= eps for v in outputs.values()))


@register_oracle("max_modvalue")
def _oracle_max(outputs, schedule, *, mult: int = 37,
                mod: int = 1009) -> bool:
    n = schedule.num_nodes
    true = max(_modvalue(i, mult, mod) for i in range(n))
    return len(outputs) == n and all(v == true for v in outputs.values())


@register_oracle("consensus_valid")
def _oracle_consensus(outputs, schedule, *, prefix: str = "p") -> bool:
    n = schedule.num_nodes
    values = set(outputs.values())
    proposals = {f"{prefix}{i}" for i in range(n)}
    return (len(outputs) == n and len(values) == 1
            and next(iter(values)) in proposals)
