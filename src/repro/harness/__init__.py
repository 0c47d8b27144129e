"""S7 — experiment harness.

* :mod:`~repro.harness.runner` — generic run-one-trial machinery:
  build schedule + nodes, execute, certify the schedule's T-interval
  promise, check output correctness, extract the measured quantities;
* :mod:`~repro.harness.experiments` — per experiment id (T1–T3, F1–F6
  from DESIGN.md §3, X1–X2) its ``cells`` and a pure ``derive`` that
  turns their rows into an
  :class:`~repro.harness.experiments.ExperimentResult` with raw rows and
  rendered tables/figures, and :func:`run_experiments`, which runs any
  set of them as one evaluation graph;
* :mod:`~repro.harness.io` — persistence of results (CSV + JSON + the
  rendered text) under a results directory;
* :mod:`~repro.harness.cli` — ``repro-experiments`` entry point that runs
  any subset of experiments and writes everything to disk.

Every experiment describes its trials as declarative
:class:`repro.exec.TrialSpec` cells; :func:`run_experiments` sends the
cells of all requested experiments through one :mod:`repro.exec`
executor run, which adds worker processes and a content-addressed
result cache (``--workers/--cache-dir`` on the CLI) on top of the same
measurement semantics, and executes a cell that experiments share once.
"""

from .runner import TrialResult, run_trial
from .experiments import (
    ExperimentResult,
    EXPERIMENTS,
    run_experiments,
)
from .io import save_experiment, load_rows
from .claims import Claim, CLAIMS, check_claims, render_claims

__all__ = [
    "TrialResult",
    "run_trial",
    "ExperimentResult",
    "EXPERIMENTS",
    "run_experiments",
    "save_experiment",
    "load_rows",
    "Claim",
    "CLAIMS",
    "check_claims",
    "render_claims",
]
