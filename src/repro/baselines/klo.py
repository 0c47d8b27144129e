"""Kuhn–Lynch–Oshman-style k-committee counting (the ``Θ(N²)`` baseline).

This is the assumption-free, deterministic, **halting** exact-Count
algorithm of the kind introduced by Kuhn, Lynch & Oshman (STOC 2010) for
1-interval connected dynamic networks.  It needs *no* knowledge of ``N``,
``d``, or the topology, and it is the algorithm whose ``Ω(N)`` (indeed
``Θ(N²)``) round complexity the paper's contribution removes for
low-dynamic-diameter networks.

Algorithm (guess-and-verify, doubling guesses ``k = 1, 2, 4, …``):

**k-committee election** (``k`` cycles × 3 phases × ``k`` rounds).  Every
node starts each epoch uncommitted.  In each cycle:

1. *poll* (``k`` rounds): uncommitted nodes min-flood the smallest
   uncommitted id they have heard;
2. *request* (``k`` rounds): an uncommitted node whose poll-min is its own
   id considers itself a leader; every other uncommitted node floods a
   join request addressed to its poll-min (nodes forward, per addressee,
   the lexicographically smallest request heard);
3. *grant* (``k`` rounds): each leader grants exactly **one** received
   request; grants are flooded; a granted node joins the leader's
   committee.

After ``k`` cycles, still-uncommitted nodes form singleton committees.
Since a leader grants at most one node per cycle, **every committee has
size ≤ k + 1**.

**k-verification** (``k + 2`` rounds).  Every node broadcasts its
committee id; a node that hears a different id (or the pollution marker)
becomes *polluted* and broadcasts the marker from then on.  Two
invariants make the outcome globally consistent without coordination:

* *single committee ⇒ nobody is ever polluted* (nobody ever broadcasts a
  different id);
* *≥ 2 committees ⇒ every node is polluted within ``k + 1`` rounds*: for
  any committee ``c``, the set of its still-clean members loses at least
  one member per round (the per-round connectivity cut from that set has
  an edge whose far endpoint broadcasts a different id or the marker), and
  the set starts at size ≤ ``k + 1``.

**dissemination** (``k + 2`` rounds, success only).  On success there is a
unique leader (the one node whose committee id is its own id); it knows it
granted exactly ``g = N - 1`` members, floods ``g + 1``, and every node
decides that exact count and halts.  On failure all nodes are polluted, so
all (consistently) skip dissemination and start the next epoch with ``2k``.

Correctness: a committee containing all ``N`` nodes needs ``k + 1 >= N``,
so success implies the disseminated count is exact; completeness holds for
any ``k >= N - 1`` (each cycle then commits one new member to the global
minimum-id leader and floods complete), so the first successful guess is
at most ``2(N - 1)`` and the total round complexity is ``Θ(N²)`` —
independent of how small the dynamic diameter is.

Messages carry sets of requests/grants, so this baseline (exactly like the
original) lives in the unbounded-bandwidth regime; the metrics record its
true bit cost for experiment F6.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .._validate import require_positive_int
from ..errors import AlgorithmViolation, ConfigurationError
from ..simnet.batch import KCommitteeBatchKernel
from ..simnet.message import NodeId
from ..simnet.node import Algorithm, RoundContext

__all__ = ["KCommitteeCount", "epoch_length", "total_rounds_prediction"]


def epoch_length(k: int, success: bool) -> int:
    """Rounds consumed by one guess-``k`` epoch."""
    base = 3 * k * k + (k + 2)
    return base + (k + 2) if success else base


def total_rounds_prediction(n: int, initial_guess: int = 1,
                            guess_growth: int = 2) -> int:
    """Exact number of rounds KCommitteeCount takes for a given ``N``.

    The algorithm is deterministic and oblivious to the topology until the
    successful epoch, so its round complexity is a pure function of ``N``
    (assuming, as is the case for every 1-interval schedule, that epochs
    with ``k < N - 1`` fail and the first ``k >= N - 1`` succeeds).
    Used by :mod:`repro.analysis.complexity` to extrapolate the ``Θ(N²)``
    curve beyond simulatable sizes, and by the T3 ablation of the guess
    growth factor (larger growth overshoots the successful ``k`` harder;
    growth 2 is within 4x of optimal for the quadratic epoch cost).
    """
    require_positive_int(n, "n")
    require_positive_int(guess_growth, "guess_growth")
    if guess_growth < 2:
        raise ConfigurationError("guess_growth must be >= 2")
    total = 0
    k = require_positive_int(initial_guess, "initial_guess")
    while True:
        success = k >= n - 1
        total += epoch_length(k, success)
        if success:
            return total
        k *= guess_growth


# Phases within a cycle, in order.
_POLL, _REQUEST, _GRANT = 0, 1, 2
# Epoch-level stages.
_STAGE_CYCLES, _STAGE_VERIFY, _STAGE_DISSEMINATE = 0, 1, 2

_POLLUTED = "!"  # the pollution marker broadcast during verification


class KCommitteeCount(Algorithm):
    """Exact Count via k-committee election (see module docstring).

    Parameters
    ----------
    node_id:
        Unique node id (any int; ordering is what matters).
    initial_guess:
        First committee-size guess; 1 matches the classic algorithm.
    guess_growth:
        Multiplier applied to the guess after a failed epoch (default 2;
        ablated in T3 — larger growth means fewer epochs but a worse
        overshoot of the successful guess, whose epoch costs ``Θ(k²)``).
    """

    name = "klo_count"

    def __init__(self, node_id: int, initial_guess: int = 1,
                 guess_growth: int = 2) -> None:
        super().__init__(node_id)
        self.k = require_positive_int(initial_guess, "initial_guess")
        self.guess_growth = require_positive_int(guess_growth, "guess_growth")
        if self.guess_growth < 2:
            raise ConfigurationError("guess_growth must be >= 2")
        self._epoch_round = 0  # rounds already completed in this epoch
        self._reset_epoch_state()

    # -- epoch bookkeeping ---------------------------------------------------

    def _reset_epoch_state(self) -> None:
        self.committee: Optional[int] = None
        self.grants_made = 0
        self.granted_ids: set = set()
        self.poll_min: Optional[int] = None
        self.request_best: Dict[int, int] = {}  # addressee -> smallest requester
        self.grant_seen: Dict[int, int] = {}    # leader -> granted node
        self.polluted = False
        self.count_heard: Optional[int] = None

    def _position(self) -> Tuple[int, int, int]:
        """(stage, cycle, round-within-phase) for the *current* round.

        The current round is ``self._epoch_round`` (0-based) within the
        epoch; all nodes compute identical positions because they share
        the global round counter.
        """
        k = self.k
        t = self._epoch_round
        cycles_len = 3 * k * k
        if t < cycles_len:
            cycle, rem = divmod(t, 3 * k)
            phase, pr = divmod(rem, k)
            return (_STAGE_CYCLES, cycle * 3 + phase, pr)
        t -= cycles_len
        if t < k + 2:
            return (_STAGE_VERIFY, 0, t)
        t -= k + 2
        if t < k + 2:
            return (_STAGE_DISSEMINATE, 0, t)
        raise AlgorithmViolation(
            f"node {self.node_id}: round {self._epoch_round} beyond epoch "
            f"length for k={self.k}")

    # -- compose ---------------------------------------------------------------

    def compose(self, ctx: RoundContext) -> Any:
        stage, cycphase, _ = self._position()
        k = self.k
        if stage == _STAGE_CYCLES:
            phase = cycphase % 3
            cycle = cycphase // 3
            if phase == _POLL:
                # Min-flood the smallest uncommitted id heard so far this
                # phase (first poll round: own id if uncommitted).
                value = self.poll_min
                if self.committee is None:
                    own = self.node_id
                    value = own if value is None else min(value, own)
                if value is None:
                    return None
                return ("P", k, cycle, NodeId(value))
            if phase == _REQUEST:
                items = tuple(
                    (NodeId(addr), NodeId(req))
                    for addr, req in sorted(self.request_best.items())
                )
                return ("R", k, cycle, items) if items else None
            # _GRANT
            items = tuple(
                (NodeId(leader), NodeId(grantee))
                for leader, grantee in sorted(self.grant_seen.items())
            )
            return ("G", k, cycle, items) if items else None
        if stage == _STAGE_VERIFY:
            if self.polluted:
                return ("V", k, _POLLUTED)
            return ("V", k, NodeId(self.committee))
        # _STAGE_DISSEMINATE
        if self.count_heard is None:
            return None
        return ("C", k, self.count_heard)

    # -- deliver ---------------------------------------------------------------

    def deliver(self, ctx: RoundContext, inbox: List[Any]) -> None:
        stage, cycphase, pr = self._position()
        k = self.k
        changed = False

        if stage == _STAGE_CYCLES:
            phase = cycphase % 3
            cycle = cycphase // 3
            if phase == _POLL:
                best = self.poll_min
                if self.committee is None:
                    own = self.node_id
                    best = own if best is None else min(best, own)
                for msg in inbox:
                    if msg[0] == "P":
                        value = int(msg[3])
                        if best is None or value < best:
                            best = value
                if best != self.poll_min:
                    self.poll_min = best
                    changed = True
                if pr == k - 1:
                    # Poll phase ends: uncommitted non-leaders register
                    # their own join request for the request phase.
                    self.request_best = {}
                    if (self.committee is None and self.poll_min is not None
                            and self.poll_min != self.node_id):
                        self.request_best[self.poll_min] = self.node_id
                    changed = True
            elif phase == _REQUEST:
                for msg in inbox:
                    if msg[0] == "R":
                        for addr, req in msg[3]:
                            addr, req = int(addr), int(req)
                            cur = self.request_best.get(addr)
                            if cur is None or req < cur:
                                self.request_best[addr] = req
                                changed = True
                if pr == k - 1:
                    # Request phase ends: leaders grant one requester.
                    self.grant_seen = {}
                    if self.committee is None and self.poll_min == self.node_id:
                        req = self.request_best.get(self.node_id)
                        if req is not None and req != self.node_id:
                            self.grant_seen[self.node_id] = req
                            self.grants_made += 1
                            self.granted_ids.add(req)
                    changed = True
            else:  # _GRANT
                for msg in inbox:
                    if msg[0] == "G":
                        for leader, grantee in msg[3]:
                            leader, grantee = int(leader), int(grantee)
                            if leader not in self.grant_seen:
                                self.grant_seen[leader] = grantee
                                changed = True
                if pr == k - 1:
                    # Grant phase ends: a granted node joins; reset the
                    # per-cycle flood state.
                    if self.committee is None:
                        for leader, grantee in self.grant_seen.items():
                            if grantee == self.node_id:
                                self.committee = leader
                                break
                    self.poll_min = None
                    self.request_best = {}
                    self.grant_seen = {}
                    changed = True
                    if cycle == k - 1:
                        # All cycles done: singletons for the uncommitted.
                        if self.committee is None:
                            self.committee = self.node_id
        elif stage == _STAGE_VERIFY:
            if not self.polluted:
                for msg in inbox:
                    if msg[0] == "V":
                        payload = msg[2]
                        if payload == _POLLUTED or int(payload) != self.committee:
                            self.polluted = True
                            changed = True
                            break
            if pr == k + 1:
                # Verification ends.  Success: the unique leader seeds the
                # count for dissemination.
                if (not self.polluted and self.committee == self.node_id):
                    self.count_heard = self.grants_made + 1
                changed = True
        else:  # _STAGE_DISSEMINATE
            if self.polluted:
                # Failed epoch: dissemination is skipped entirely; this
                # branch is unreachable because _advance jumps straight to
                # the next epoch for polluted nodes.
                raise AlgorithmViolation(
                    f"node {self.node_id}: polluted node entered "
                    f"dissemination")
            for msg in inbox:
                if msg[0] == "C":
                    value = int(msg[2])
                    if self.count_heard is None:
                        self.count_heard = value
                        changed = True
                    elif self.count_heard != value:
                        raise AlgorithmViolation(
                            f"node {self.node_id}: conflicting counts "
                            f"{self.count_heard} vs {value}")
            if pr == k + 1:
                if self.count_heard is None:
                    raise AlgorithmViolation(
                        f"node {self.node_id}: dissemination ended without "
                        f"a count (k={k})")
                self.decide(self.count_heard)
                self.halt()

        self.mark_changed(changed)
        self._advance(stage)

    @classmethod
    def __batch_kernel__(cls, nodes):
        """Phase-structured CSR kernel (:mod:`repro.simnet.batch`)."""
        return KCommitteeBatchKernel.build(nodes)

    def _advance(self, stage: int) -> None:
        """Advance the epoch-round counter; jump epochs on failure."""
        self._epoch_round += 1
        k = self.k
        verify_end = 3 * k * k + (k + 2)
        if stage == _STAGE_VERIFY and self._epoch_round == verify_end:
            if self.polluted:
                # Globally consistent failure: restart with a grown guess.
                self.k *= self.guess_growth
                self._epoch_round = 0
                self._reset_epoch_state()
