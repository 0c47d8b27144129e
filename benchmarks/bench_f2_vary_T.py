"""Bench: regenerate F2 rounds-vs-T figure (experiment f2 of DESIGN.md §3).

Runs the harness experiment once under pytest-benchmark timing and
persists the table/figure artefacts to `results/f2/`.
"""

from repro.harness.experiments import run_f2


def test_f2_regenerate(benchmark, quick, persist, exec_opts):
    result = benchmark.pedantic(
        run_f2, kwargs={"quick": quick, "exec_opts": exec_opts},
        rounds=1, iterations=1)
    persist(result)
    assert result.rows, "experiment produced no rows"
