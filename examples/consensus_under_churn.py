#!/usr/bin/env python
"""Consensus under churn, with the decide/retract timeline made visible.

Runs the zero-knowledge stabilizing consensus on a churning network and
uses an in-memory event recorder to show the *decision lifecycle*: nodes
decide tentatively after quiet windows, occasionally retract when late
information arrives, and all settle on the same value within a few
multiples of the dynamic diameter.

Run:  python examples/consensus_under_churn.py
"""

from collections import Counter

from repro import RngRegistry, Simulator
from repro.core import SublinearConsensus
from repro.dynamics import (
    EdgeChurnAdversary,
    dynamic_diameter,
    random_tree_graph,
)
from repro.obs import Recorder
import numpy as np

N, SEED = 100, 19


def main() -> None:
    rng = np.random.default_rng(SEED)
    backbone = random_tree_graph(N, rng)
    schedule = EdgeChurnAdversary(N, backbone, p_on=0.3, dwell=3, seed=SEED)
    d = dynamic_diameter(schedule)

    nodes = [SublinearConsensus(i, proposal=f"plan-{i}") for i in range(N)]
    rec = Recorder.in_memory()
    sim = Simulator(schedule, nodes, rng=RngRegistry(SEED), recorder=rec)
    result = sim.run(max_rounds=10_000, until="quiescent",
                     quiescence_window=64)

    print(f"N={N}, churn backbone d={d}")
    print(f"consensus value: {result.unanimous_output()!r} "
          f"(the minimum-id node's proposal — validity holds)")

    decisions = rec.of_kind("decision")
    events = Counter(e.action for e in decisions)
    print(f"decision lifecycle: {events['decide']} decides, "
          f"{events['retract']} retracts across {N} nodes")

    # A node's final decision is its last decide with no later retract.
    final_round = {}
    for e in decisions:
        if e.action == "decide":
            final_round[e.node_id] = e.round
        elif e.action == "retract":
            final_round.pop(e.node_id, None)
    print(f"final decisions span rounds {min(final_round.values())}.."
          f"{max(final_round.values())} "
          f"(theory bound (1+growth)*d + O(1) = {3 * d + 2})")

    per_round = Counter(final_round.values())
    print("\nfinal decisions per round:")
    for r in sorted(per_round):
        print(f"  round {r:>3}: {'#' * min(per_round[r], 60)} "
              f"({per_round[r]} nodes)")


if __name__ == "__main__":
    main()
