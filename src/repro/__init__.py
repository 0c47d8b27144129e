"""repro — reproduction of "Achieving Sublinear Complexity under Constant T
in T-interval Dynamic Networks" (Hou, Jahja, Sun, Wu, Yu; SPAA 2022).

The package is organised as (see DESIGN.md for the full inventory):

* :mod:`repro.simnet` — the lock-step dynamic-network simulator;
* :mod:`repro.dynamics` — topologies, T-interval adversaries, promise
  verification, dynamic-diameter computation;
* :mod:`repro.baselines` — prior-work algorithms (flooding,
  Kuhn–Lynch–Oshman counting, token dissemination);
* :mod:`repro.core` — the paper's (reconstructed) sublinear Count / Max /
  Consensus algorithms for constant T;
* :mod:`repro.analysis` — complexity predictors, fits, tables, plots;
* :mod:`repro.harness` — experiment runner regenerating every table and
  figure of the (reconstructed) evaluation;
* :mod:`repro.exec` — parallel experiment executor: declarative
  :class:`TrialSpec` trials, a content-addressed result cache, and
  crash-safe resumable sweeps across worker processes;
* :mod:`repro.obs` — structured observability: versioned JSONL event
  streams from any run (decisions, engine-tier dispatch, cache
  counters), free when disabled;
* :mod:`repro.report` — renders ``results/`` into ``docs/RESULTS.md``
  (claim verdicts, scaling fits, row tables), drift-checked in CI.

Quickstart::

    from repro import Simulator, RngRegistry
    from repro.dynamics import OverlapHandoffAdversary
    from repro.core import SublinearMax

    n, T = 64, 2
    sched = OverlapHandoffAdversary(n, T, seed=1)
    nodes = [SublinearMax(i, value=i * 7 % 101) for i in range(n)]
    result = Simulator(sched, nodes, rng=RngRegistry(1)).run(
        max_rounds=10_000, until="quiescent", quiescence_window=32)
    print(result.unanimous_output(), result.rounds)
"""

from .errors import (
    ReproError,
    ConfigurationError,
    ScheduleError,
    IntervalConnectivityError,
    SimulationError,
    BandwidthExceededError,
    NotTerminatedError,
    IncorrectOutputError,
)
from .simnet import (
    Simulator,
    RunResult,
    Algorithm,
    RoundContext,
    RngRegistry,
)
from .exec import ParallelExecutor, ResultCache, TrialSpec

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ScheduleError",
    "IntervalConnectivityError",
    "SimulationError",
    "BandwidthExceededError",
    "NotTerminatedError",
    "IncorrectOutputError",
    "Simulator",
    "RunResult",
    "Algorithm",
    "RoundContext",
    "RngRegistry",
    "TrialSpec",
    "ParallelExecutor",
    "ResultCache",
    "__version__",
]
