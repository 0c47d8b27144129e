"""S6 — analysis utilities for the reconstructed evaluation.

* :mod:`~repro.analysis.complexity` — closed-form round-complexity
  predictors for every algorithm (what theory says the curves should be)
  and crossover computation;
* :mod:`~repro.analysis.fitting` — log-log slope estimation (the
  "exponent" each measured curve exhibits, for F1);
* :mod:`~repro.analysis.stats` — replicate summaries (mean / std /
  confidence intervals);
* :mod:`~repro.analysis.tables` — ASCII / Markdown table rendering;
* :mod:`~repro.analysis.plotting` — dependency-free ASCII charts for the
  figure experiments (matplotlib is not available offline).
"""

from .complexity import (
    klo_rounds,
    flood_rounds,
    quiescence_rounds_bound,
    tdm_rounds_bound,
    crossover_n,
)
from .fitting import power_law_fit
from .stats import summarize, Summary
from .tables import render_table, render_markdown
from .plotting import ascii_plot

__all__ = [
    "klo_rounds",
    "flood_rounds",
    "quiescence_rounds_bound",
    "tdm_rounds_bound",
    "crossover_n",
    "power_law_fit",
    "summarize",
    "Summary",
    "render_table",
    "render_markdown",
    "ascii_plot",
]
