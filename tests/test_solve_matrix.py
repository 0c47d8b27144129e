"""Cross-product smoke matrix: every abstract problem on every adversary.

The broadest integration net in the suite: any regression in any layer
(engine, schedule, aggregate, controller) that breaks correctness on any
adversary fails a specific, named cell.
"""

import numpy as np
import pytest

from repro.core import ExactCount, SublinearConsensus, SublinearMax
from repro.dynamics import (
    AlternatingMatchingsAdversary,
    EdgeChurnAdversary,
    FreshSpanningAdversary,
    OverlapHandoffAdversary,
    RepairedMobilityAdversary,
    StaticAdversary,
    dilate,
    random_tree_graph,
    ring_of_cliques,
)
from repro.simnet import RngRegistry, Simulator

N = 20


def adversaries():
    rng = np.random.default_rng(11)
    return {
        "static_roc": StaticAdversary(N, ring_of_cliques(N, 4)),
        "fresh": FreshSpanningAdversary(N, seed=1),
        "handoff_T3": OverlapHandoffAdversary(N, 3, seed=1),
        "alternating": AlternatingMatchingsAdversary(N),
        "churn": EdgeChurnAdversary(N, random_tree_graph(N, rng), seed=1),
        "mobility": RepairedMobilityAdversary(N, T=2, seed=1),
        "dilated_fresh": dilate(FreshSpanningAdversary(N, seed=2), 3),
    }


VALUES = [(i * 13) % 47 for i in range(N)]

#: Problem -> (node factory, the unanimous output every node must reach).
PROBLEMS = {
    "count": (lambda i: ExactCount(i), N),
    "max": (lambda i: SublinearMax(i, VALUES[i]), max(VALUES)),
    "consensus": (lambda i: SublinearConsensus(i, f"p{i}"), "p0"),
}


@pytest.mark.parametrize("adv_name", sorted(adversaries()))
@pytest.mark.parametrize("problem", list(PROBLEMS))
def test_problem_on_adversary(problem, adv_name):
    schedule = adversaries()[adv_name]
    make_node, expected = PROBLEMS[problem]
    nodes = [make_node(i) for i in range(N)]
    result = Simulator(schedule, nodes, rng=RngRegistry(3)).run(
        max_rounds=40 * N + 4000, until="quiescent", quiescence_window=64)
    assert result.unanimous_output() == expected, (problem, adv_name)
