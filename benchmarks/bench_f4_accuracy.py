"""Bench: regenerate F4 sketch accuracy figure (experiment f4 of DESIGN.md §3).

Runs the harness experiment once under pytest-benchmark timing and
persists the table/figure artefacts to `results/f4/`.
"""

from repro.harness.experiments import run_f4


def test_f4_regenerate(benchmark, quick, persist, exec_opts):
    result = benchmark.pedantic(
        run_f4, kwargs={"quick": quick, "exec_opts": exec_opts},
        rounds=1, iterations=1)
    persist(result)
    assert result.rows, "experiment produced no rows"
