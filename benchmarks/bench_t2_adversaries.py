"""Bench: regenerate T2 adversary-robustness table (experiment t2 of DESIGN.md §3).

Runs the harness experiment once under pytest-benchmark timing and
persists the table/figure artefacts to `results/t2/`.
"""

from repro.harness.experiments import run_t2


def test_t2_regenerate(benchmark, quick, persist, exec_opts):
    result = benchmark.pedantic(
        run_t2, kwargs={"quick": quick, "exec_opts": exec_opts},
        rounds=1, iterations=1)
    persist(result)
    assert result.rows, "experiment produced no rows"
