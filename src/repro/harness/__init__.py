"""S7 — experiment harness.

* :mod:`~repro.harness.runner` — generic run-one-trial machinery:
  build schedule + nodes, execute, certify the schedule's T-interval
  promise, check output correctness, extract the measured quantities;
* :mod:`~repro.harness.experiments` — one function per experiment id
  (T1–T3, F1–F6 from DESIGN.md §3), each returning an
  :class:`~repro.harness.experiments.ExperimentResult` with raw rows and
  rendered tables/figures;
* :mod:`~repro.harness.io` — persistence of results (CSV + JSON + the
  rendered text) under a results directory;
* :mod:`~repro.harness.cli` — ``repro-experiments`` entry point that runs
  any subset of experiments and writes everything to disk.

Every experiment describes its trials as declarative
:class:`repro.exec.TrialSpec` cells and routes them through the
:mod:`repro.exec` executor, which adds worker processes, a
content-addressed result cache, and crash-safe resume on top of the
same measurement semantics (``--workers/--cache-dir/--resume`` on the
CLI).
"""

from .runner import TrialResult, run_trial, run_replicates
from .experiments import (
    ExperimentResult,
    EXPERIMENTS,
    run_experiment,
)
from .io import save_experiment, load_rows
from .sweeps import grid_points, sweep, sweep_with_report, aggregate_rows
from .claims import Claim, CLAIMS, check_claims, render_claims

__all__ = [
    "TrialResult",
    "run_trial",
    "run_replicates",
    "ExperimentResult",
    "EXPERIMENTS",
    "run_experiment",
    "save_experiment",
    "load_rows",
    "grid_points",
    "sweep",
    "sweep_with_report",
    "aggregate_rows",
    "Claim",
    "CLAIMS",
    "check_claims",
    "render_claims",
]
