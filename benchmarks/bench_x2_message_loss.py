"""Bench: regenerate X2, robustness under message loss (extension, DESIGN S8).

Asserts the robustness contract: the stabilizing core stays exact at
every loss rate while its rounds grow smoothly; the halting known-bound
variant loses correctness at high loss.
"""

from repro.harness.experiments import run_x2


def test_x2_regenerate(benchmark, quick, persist, exec_opts):
    result = benchmark.pedantic(
        run_x2, kwargs={"quick": quick, "exec_opts": exec_opts},
        rounds=1, iterations=1)
    persist(result)
    assert all(r["stabilizing_correct"] for r in result.rows)
    rounds = [r["stabilizing_rounds"] for r in result.rows]
    assert rounds == sorted(rounds)  # smooth degradation
    high_loss = [r for r in result.rows if r["loss_rate"] >= 0.6]
    if not quick:
        assert any(not r["known_bound_2d_correct"] for r in high_loss), \
            "known-bound should break under heavy loss"
