"""Benchmark fixtures.

Every experiment bench runs the corresponding harness experiment exactly
once under pytest-benchmark timing (``pedantic(rounds=1)``) and persists
the rendered report + raw rows under ``results/`` so the artefacts exist
even when pytest captures stdout.  Set ``REPRO_BENCH_QUICK=1`` to run the
shrunken experiment sizes.

The experiment benches also honour ``REPRO_BENCH_WORKERS=N`` (fan the
measurement cells across N worker processes) and
``REPRO_BENCH_CACHE_DIR=DIR`` (content-addressed result cache, so a
re-bench executes only missing cells).  Rows are
byte-identical to serial either way — only wall-clock changes.
"""

from __future__ import annotations

import os

import pytest

from repro.exec.executor import ExecOptions
from repro.harness.experiments import ExperimentResult
from repro.harness.io import save_experiment

RESULTS_DIR = os.environ.get(
    "REPRO_RESULTS_DIR",
    os.path.join(os.path.dirname(os.path.dirname(__file__)), "results"),
)

QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") == "1"


@pytest.fixture(scope="session")
def results_dir() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def quick() -> bool:
    return QUICK


@pytest.fixture(scope="session")
def exec_opts():
    """ExecOptions from the environment, or None for plain serial runs."""
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
    cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR") or None
    if workers <= 1 and cache_dir is None:
        return None
    journal_dir = os.path.join(cache_dir, "journals") if cache_dir else None
    return ExecOptions(workers=workers, cache_dir=cache_dir,
                       journal_dir=journal_dir)


@pytest.fixture
def persist(results_dir):
    """Save an ExperimentResult and echo a short summary line."""

    def _persist(result: ExperimentResult) -> ExperimentResult:
        path = save_experiment(result, results_dir)
        print(f"\n[{result.exp_id}] {result.title} -> {path}")
        for text in result.tables.values():
            print(text)
        return result

    return _persist
