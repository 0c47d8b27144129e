#!/usr/bin/env python
"""Quickstart: Count and Max in a T-interval dynamic network.

Builds a 128-node network whose topology is rewired by an adversary every
T=2 rounds (with the promise-preserving overlap handoff), runs the
paper's (reconstructed) zero-knowledge algorithms, and compares their
decision rounds against the classic known-N baselines and the network's
true dynamic diameter.

Run:  python examples/quickstart.py
"""

from repro import RngRegistry, Simulator
from repro.baselines import KCommitteeCount
from repro.core import ExactCount, MaxKnownBound, SublinearMax
from repro.dynamics import (
    OverlapHandoffAdversary,
    dynamic_diameter,
    verify_t_interval_connectivity,
)

N, T, SEED = 128, 2, 42


def main() -> None:
    schedule = OverlapHandoffAdversary(N, T, noise_edges=N // 8, seed=SEED)

    # The adversary promises T-interval connectivity; check it.
    ok, _ = verify_t_interval_connectivity(schedule, T, horizon=200)
    d = dynamic_diameter(schedule)
    print(f"N={N}, T={T}; promise verified={ok}; dynamic diameter d={d}")

    # --- Max, zero knowledge (stabilizing): finishes in O(d) rounds -------
    values = {i: (i * 37) % 1009 for i in range(N)}
    nodes = [SublinearMax(i, values[i]) for i in range(N)]
    result = Simulator(schedule, nodes, rng=RngRegistry(SEED)).run(
        max_rounds=10_000, until="quiescent", quiescence_window=64)
    print(f"SublinearMax: output={result.unanimous_output()} "
          f"(true {max(values.values())}), last decision at round "
          f"{result.metrics.last_decision_round} (~{d} = d)")

    # --- Max, known-N baseline: Theta(N) rounds regardless of d -----------
    # The folklore flood: the known-bound Max with the bound set to N-1.
    nodes = [MaxKnownBound(i, values[i], rounds_bound=N - 1)
             for i in range(N)]
    result = Simulator(schedule, nodes).run(max_rounds=N)
    print(f"MaxKnownBound(rounds_bound=N-1): "
          f"output={result.unanimous_output()}, "
          f"rounds={result.rounds} (= N-1)")

    # --- Exact Count, zero knowledge: O(d) rounds --------------------------
    nodes = [ExactCount(i) for i in range(N)]
    result = Simulator(schedule, nodes, rng=RngRegistry(SEED)).run(
        max_rounds=10_000, until="quiescent", quiescence_window=64)
    print(f"ExactCount: output={result.unanimous_output()} (true {N}), "
          f"last decision at round {result.metrics.last_decision_round}")

    # --- Exact Count, KLO baseline: Theta(N^2) rounds ----------------------
    # (run a smaller instance so the quickstart stays quick)
    n_small = 24
    small = OverlapHandoffAdversary(n_small, T, seed=SEED)
    nodes = [KCommitteeCount(i) for i in range(n_small)]
    result = Simulator(small, nodes).run(max_rounds=50_000)
    print(f"KCommitteeCount (N={n_small}): output="
          f"{result.unanimous_output()}, rounds={result.rounds} (Theta(N^2))")


if __name__ == "__main__":
    main()
