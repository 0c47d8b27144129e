"""Bench: regenerate T3 ablation table (experiment t3 of DESIGN.md §3).

Runs the harness experiment once under pytest-benchmark timing and
persists the table/figure artefacts to `results/t3/`.
"""

from repro.harness.experiments import run_t3


def test_t3_regenerate(benchmark, quick, persist, exec_opts):
    result = benchmark.pedantic(
        run_t3, kwargs={"quick": quick, "exec_opts": exec_opts},
        rounds=1, iterations=1)
    persist(result)
    assert result.rows, "experiment produced no rows"
