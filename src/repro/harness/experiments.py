"""Experiment definitions T1–T3 / F1–F6 (the reconstructed evaluation).

Each ``run_*`` function regenerates one table or figure from DESIGN.md §3
and returns an :class:`ExperimentResult` holding the raw rows plus
rendered ASCII tables/figures.  ``quick=True`` shrinks sizes for tests
and smoke runs; the benches and the CLI use the full sizes.

Conventions
-----------
* the measured "rounds" of a *stabilizing* algorithm is the round of the
  last final (never-retracted) decision; for halting algorithms it is the
  total rounds executed — both are "time until every node knows the
  answer for good";
* every trial's schedule satisfies a machine-checked T-interval promise
  (the generators are verified in the test suite; adaptive schedules are
  certified post-hoc on their realised prefix);
* inputs are deterministic functions of node ids so oracles are exact;
* every simulation is a :class:`~repro.exec.TrialSpec` cell run by the
  :mod:`repro.exec` executor, so *exec_opts* (workers, result cache,
  resume) applies to every experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..analysis.complexity import (
    crossover_n,
    flood_rounds,
    klo_rounds,
    quiescence_rounds_bound,
)
from ..analysis.fitting import power_law_fit
from ..analysis.plotting import ascii_plot
from ..analysis.stats import summarize
from ..analysis.tables import render_table
from ..core.sketches import (
    ExponentialCountSketch,
    GeometricCountSketch,
    failure_probability,
    required_width,
)
from ..dynamics import (
    OverlapHandoffAdversary,
    StaticAdversary,
    dynamic_diameter,
    ring_of_cliques,
)
from ..exec.executor import ExecOptions
from ..exec.specs import TrialSpec

__all__ = ["ExperimentResult", "EXPERIMENTS", "run_experiment"]


@dataclass
class ExperimentResult:
    """Rows + rendered artefacts of one experiment."""

    exp_id: str
    title: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    tables: Dict[str, str] = field(default_factory=dict)
    figures: Dict[str, str] = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        """Everything as one text blob (what the CLI prints)."""
        parts = [f"=== {self.exp_id}: {self.title} ==="]
        if self.notes:
            parts.append(self.notes.strip())
        for name, text in self.tables.items():
            parts.append(f"--- table: {name} ---\n{text}")
        for name, text in self.figures.items():
            parts.append(f"--- figure: {name} ---\n{text}")
        return "\n\n".join(parts)


# --------------------------------------------------------------------------
# shared building blocks
# --------------------------------------------------------------------------

def _lowdiam_schedule(n: int, T: int, seed: int) -> OverlapHandoffAdversary:
    """The evaluation's default low-``d`` T-interval adversary."""
    return OverlapHandoffAdversary(n, T, noise_edges=max(1, n // 8), seed=seed)


def _row_rounds(row: Dict[str, Any]) -> int:
    """Decision-completion time from a flattened executor row."""
    if row.get("last_decision_round") is not None:
        return int(row["last_decision_round"])
    return int(row["rounds"])


def _execute_cells(cells: List[Tuple[TrialSpec, int]],
                   exec_opts: Optional[ExecOptions],
                   label: str) -> List[Dict[str, Any]]:
    """Run spec cells through the executor (serial when no options).

    ``exec_opts`` carries workers / cache / journal / resume settings
    from the CLI; ``None`` runs serially (``workers=1``, no cache) with
    byte-identical rows.
    """
    opts = exec_opts or ExecOptions()
    return opts.make_executor(label).run(cells).rows


def _group_rows(rows: List[Dict[str, Any]],
                *keys: str) -> Dict[tuple, List[Dict[str, Any]]]:
    grouped: Dict[tuple, List[Dict[str, Any]]] = {}
    for row in rows:
        grouped.setdefault(tuple(row[k] for k in keys), []).append(row)
    return grouped


# Count-algorithm registry used by T1/F1/F6/X1.  Each entry builds a
# declarative TrialSpec for a given (n, T) — picklable, so the executor
# can fan the grid across worker processes and content-address the rows.
def _count_specs(T: int) -> Dict[str, Callable[[int], TrialSpec]]:
    def klo(n: int) -> TrialSpec:
        return TrialSpec(
            schedule="lowdiam_handoff", schedule_params={"n": n, "T": T},
            nodes="klo_count", node_params={"n": n},
            max_rounds=2 * klo_rounds(n) + 200,
            until="halted",
            oracle="count_exact",
        )

    def token(n: int) -> TrialSpec:
        return TrialSpec(
            schedule="lowdiam_handoff", schedule_params={"n": n, "T": T},
            nodes="token_dissemination",
            node_params={"n": n, "known_count": True},
            max_rounds=40 * n + 400,
            until="decided",
            oracle="count_exact",
        )

    def exact(n: int) -> TrialSpec:
        return TrialSpec(
            schedule="lowdiam_handoff", schedule_params={"n": n, "T": T},
            nodes="exact_count", node_params={"n": n},
            max_rounds=20 * n + 2000,
            until="quiescent",
            quiescence_window=64,
            oracle="count_exact",
        )

    def approx(n: int) -> TrialSpec:
        return TrialSpec(
            schedule="lowdiam_handoff", schedule_params={"n": n, "T": T},
            nodes="approx_count",
            node_params={"n": n, "eps": 0.25, "delta": 0.05},
            max_rounds=20 * n + 2000,
            until="quiescent",
            quiescence_window=64,
            oracle="count_approx",
            oracle_params={"eps": 0.25},
        )

    return {
        "klo_count": klo,
        "token_dissemination_knownN": token,
        "exact_count_ours": exact,
        "approx_count_ours": approx,
    }


# --------------------------------------------------------------------------
# T1 — headline Count scaling table
# --------------------------------------------------------------------------

def run_t1(quick: bool = False, *,
           exec_opts: Optional[ExecOptions] = None) -> ExperimentResult:
    """T1: rounds for Count vs ``N`` at constant ``T = 2``, low-``d`` dynamics.

    The measurement grid (algorithm × N × seed) routes through the
    :mod:`repro.exec` executor — *exec_opts* selects worker processes,
    the result cache, and resume; ``None`` runs serially.
    """
    T = 2
    # Top N raised from 256 once the batch-kernel tier made the N=512
    # cells affordable (see docs/PERFORMANCE.md, "Batch kernels").
    ns = [8, 16, 32] if quick else [16, 32, 64, 128, 256, 512]
    klo_cap = 16 if quick else 64
    seeds = [1] if quick else [1, 2, 3]
    algos = _count_specs(T)

    result = ExperimentResult(
        "T1", "Count: rounds vs N at constant T=2 (low-d dynamics)")
    result.notes = (
        "Measured decision-completion rounds; d is the schedule's exact "
        f"dynamic diameter.  KLO is simulated up to N={klo_cap} and "
        "extended by its exact closed-form prediction beyond (the "
        "algorithm is deterministic; predictions equal simulation, "
        "verified by tests).")

    cells = [
        (make(n).with_tags(algorithm=name, n=n), seed)
        for n in ns
        for name, make in algos.items()
        if not (name == "klo_count" and n > klo_cap)
        for seed in seeds
    ]
    grouped = _group_rows(_execute_cells(cells, exec_opts, "t1"),
                          "algorithm", "n")

    for n in ns:
        d_values = []
        for seed in seeds:
            d_values.append(dynamic_diameter(_lowdiam_schedule(n, T, seed)))
        d_mean = float(np.mean(d_values))
        for name in algos:
            if name == "klo_count" and n > klo_cap:
                result.rows.append({
                    "algorithm": name, "n": n, "T": T, "d": d_mean,
                    "rounds": klo_rounds(n), "correct": True,
                    "source": "predicted",
                })
                continue
            measured = grouped[(name, n)]
            rounds = [_row_rounds(r) for r in measured]
            correct = [r["correct"] for r in measured]
            result.rows.append({
                "algorithm": name, "n": n, "T": T, "d": d_mean,
                "rounds": summarize(rounds).mean,
                "correct": all(c for c in correct if c is not None),
                "source": "measured",
            })

    result.tables["t1"] = render_table(
        result.rows,
        columns=["algorithm", "n", "T", "d", "rounds", "correct", "source"],
        title="T1 — Count scaling (rounds to unanimous decision)")
    return result


# --------------------------------------------------------------------------
# F1 — log-log slopes
# --------------------------------------------------------------------------

def run_f1(quick: bool = False,
           t1: Optional[ExperimentResult] = None, *,
           exec_opts: Optional[ExecOptions] = None) -> ExperimentResult:
    """F1: power-law exponents of the T1 curves (slope in log-log space)."""
    t1 = t1 or run_t1(quick=quick, exec_opts=exec_opts)
    result = ExperimentResult(
        "F1", "Count: log-log scaling exponents (rounds ~ a * N^b)")
    by_algo: Dict[str, Tuple[List[float], List[float]]] = {}
    for row in t1.rows:
        xs, ys = by_algo.setdefault(row["algorithm"], ([], []))
        xs.append(float(row["n"]))
        ys.append(float(row["rounds"]))
    fit_rows = []
    for name, (xs, ys) in by_algo.items():
        fit = power_law_fit(xs, ys)
        fit_rows.append({
            "algorithm": name, "exponent_b": fit.exponent,
            "coefficient_a": fit.coefficient, "r_squared": fit.r_squared,
        })
    result.rows = fit_rows
    result.tables["f1_slopes"] = render_table(
        fit_rows, title="F1 — fitted exponents (KLO ≈ 2, token ≈ 1, ours ≈ o(1))")
    result.figures["f1_loglog"] = ascii_plot(
        {name: series for name, series in by_algo.items()},
        logx=True, logy=True, xlabel="N", ylabel="rounds",
        title="F1 — Count rounds vs N (log-log)")
    result.notes = (
        "Reproduction criterion: the baselines' exponents are >= ~1 "
        "(they carry an Omega(N) term) while the core algorithms' "
        "exponents are near 0 (polylog growth via d = O(log N) on these "
        "dynamics).")
    return result


# --------------------------------------------------------------------------
# F2 — rounds vs T
# --------------------------------------------------------------------------

def run_f2(quick: bool = False, *,
           exec_opts: Optional[ExecOptions] = None) -> ExperimentResult:
    """F2: rounds vs ``T`` at fixed ``N``."""
    n = 24 if quick else 64
    Ts = [1, 2, 4] if quick else [1, 2, 4, 8, 16]
    seeds = [1] if quick else [1, 2, 3, 4, 5]
    result = ExperimentResult("F2", f"Rounds vs T at N={n}")
    series: Dict[str, Tuple[List[float], List[float]]] = {
        "exact_count_ours": ([], []),
        "token_dissem_throttled": ([], []),
        "klo_count": ([], []),
    }

    def ours(T: int) -> TrialSpec:
        # Core algorithm on the oblivious handoff adversary: flat in T.
        return TrialSpec(
            schedule="lowdiam_handoff", schedule_params={"n": n, "T": T},
            nodes="exact_count", node_params={"n": n},
            max_rounds=20 * n + 2000, until="quiescent",
            quiescence_window=64, oracle="count_exact",
            tags={"algorithm": "exact_count_ours", "T": T})

    def token(T: int) -> TrialSpec:
        # Token dissemination against the windowed adaptive throttle:
        # decreasing in T (the N^2/T-flavoured prior-work trade-off);
        # the trial stops when dissemination completes.
        return TrialSpec(
            schedule="windowed_throttle", schedule_params={"n": n, "T": T},
            nodes="token_dissemination",
            node_params={"n": n, "known_count": False},
            max_rounds=200 * n * n, until="halted", allow_timeout=True,
            stop_when="dissemination_complete",
            tags={"algorithm": "token_dissem_throttled", "T": T})

    cells = [(make(T), seed)
             for T in Ts for make in (ours, token) for seed in seeds]
    grouped = _group_rows(_execute_cells(cells, exec_opts, "f2"),
                          "algorithm", "T")
    # KLO: oblivious to T by construction (deterministic prediction).
    klo = klo_rounds(n)
    for T in Ts:
        for name, values in [
            ("exact_count_ours",
             [_row_rounds(r) for r in grouped[("exact_count_ours", T)]]),
            ("token_dissem_throttled",
             [r["rounds"] for r in grouped[("token_dissem_throttled", T)]]),
            ("klo_count", [klo]),
        ]:
            s = summarize([float(v) for v in values])
            result.rows.append({
                "algorithm": name, "T": T, "n": n, "rounds": s.mean,
                "rounds_std": s.std,
            })
            xs, ys = series[name]
            xs.append(float(T))
            ys.append(s.mean)
    result.tables["f2"] = render_table(
        result.rows, title=f"F2 — rounds vs T (N={n}, mean of {len(seeds)} seeds)")
    result.figures["f2"] = ascii_plot(
        series, logx=True, logy=True, xlabel="T", ylabel="rounds",
        title="F2 — rounds vs T")
    result.notes = (
        "Ours is flat in T (already sublinear at T=1..2, the abstract's "
        "'constant T' claim); KLO cannot exploit T.  The throttled "
        "token-dissemination series probes the prior-work N^2/T "
        "trade-off with a simple windowed adaptive adversary; its "
        "T-dependence is weak and noisy — the true Omega(N*k/T) lower "
        "bound (Dutta et al., SODA'13) needs a charging-argument "
        "adversary this simulation does not implement — so only the "
        "direction, not the 1/T shape, should be read from that series.")
    return result


# --------------------------------------------------------------------------
# F3 — rounds vs dynamic diameter d
# --------------------------------------------------------------------------

def run_f3(quick: bool = False, *,
           exec_opts: Optional[ExecOptions] = None) -> ExperimentResult:
    """F3: rounds vs ``d`` at fixed ``N`` (ring-of-cliques sweep).

    The largest grid of the evaluation (11 clique counts × 2 algorithms
    × 3 seeds + predictions = 45 full-size rows); *exec_opts* fans the
    measured cells across worker processes — see ``docs/EXECUTOR.md``.
    """
    n = 48 if quick else 192
    cliques = [2, 4, 8] if quick else [2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 96]
    seeds = [1] if quick else [1, 2, 3]
    result = ExperimentResult("F3", f"Rounds vs dynamic diameter d at N={n}")
    series: Dict[str, Tuple[List[float], List[float]]] = {
        "exact_count_ours": ([], []),
        "sublinear_max_ours": ([], []),
        "flood_max_knownN": ([], []),
        "bound_3d+2": ([], []),
    }

    def count_spec(m: int) -> TrialSpec:
        return TrialSpec(
            schedule="static_ring_of_cliques",
            schedule_params={"n": n, "num_cliques": m},
            nodes="exact_count", node_params={"n": n},
            max_rounds=40 * n + 4000, until="quiescent",
            quiescence_window=64, oracle="count_exact",
            tags={"algorithm": "exact_count_ours", "num_cliques": m})

    def max_spec(m: int) -> TrialSpec:
        return TrialSpec(
            schedule="static_ring_of_cliques",
            schedule_params={"n": n, "num_cliques": m},
            nodes="sublinear_max_modvalue", node_params={"n": n},
            max_rounds=40 * n + 4000, until="quiescent",
            quiescence_window=64, oracle="max_modvalue",
            tags={"algorithm": "sublinear_max_ours", "num_cliques": m})

    cells = [
        (spec, seed)
        for m in cliques
        for spec in (count_spec(m), max_spec(m))
        for seed in seeds
    ]
    grouped = _group_rows(_execute_cells(cells, exec_opts, "f3"),
                          "algorithm", "num_cliques")

    for m in cliques:
        d = dynamic_diameter(StaticAdversary(n, ring_of_cliques(n, m)))
        count_rounds = [
            _row_rounds(r) for r in grouped[("exact_count_ours", m)]]
        max_rounds_ = [
            _row_rounds(r) for r in grouped[("sublinear_max_ours", m)]]

        rows_local = [
            ("exact_count_ours", summarize([float(v) for v in count_rounds]).mean),
            ("sublinear_max_ours", summarize([float(v) for v in max_rounds_]).mean),
            ("flood_max_knownN", float(flood_rounds(n))),
            ("bound_3d+2", float(quiescence_rounds_bound(d))),
        ]
        for name, rounds in rows_local:
            result.rows.append({
                "algorithm": name, "n": n, "num_cliques": m, "d": d,
                "rounds": rounds,
            })
            xs, ys = series[name]
            xs.append(float(d))
            ys.append(rounds)
    result.tables["f3"] = render_table(
        result.rows, title=f"F3 — rounds vs d (N={n} fixed)")
    result.figures["f3"] = ascii_plot(
        series, xlabel="d", ylabel="rounds",
        title="F3 — rounds vs dynamic diameter")
    result.notes = (
        "Core algorithms scale linearly in d and stay below the proved "
        "(1+growth)d+O(1) bound; the known-N flooding baseline pays N-1 "
        "regardless of d.  At d close to N the curves meet — exactly the "
        "Omega(N)-when-d=Theta(N) lower-bound regime (static line).")
    return result


# --------------------------------------------------------------------------
# F4 — approximate-count accuracy
# --------------------------------------------------------------------------

def run_f4(quick: bool = False, *,
           exec_opts: Optional[ExecOptions] = None) -> ExperimentResult:
    """F4: sketch accuracy/coverage vs ε (full-sim + direct Monte Carlo)."""
    n = 32 if quick else 64
    T = 2
    eps_list = [0.5, 0.25] if quick else [0.5, 0.25, 0.1]
    sim_trials = 4 if quick else 30
    mc_trials = 2000 if quick else 20000
    delta = 0.1
    result = ExperimentResult(
        "F4", "Approximate Count: relative error and coverage vs epsilon")
    # Full network simulations (halting variant for speed): the
    # believed-global minima equal the true minima, so sim and MC agree;
    # the sim trials certify the protocol plumbing.  Trial t runs on the
    # schedule of seed 100+t with node randomness from seed 500+t.
    diameters = [dynamic_diameter(_lowdiam_schedule(n, T, 100 + t))
                 for t in range(sim_trials)]
    cells = [
        (TrialSpec(
            schedule="lowdiam_handoff", schedule_params={"n": n, "T": T},
            schedule_seed=100 + t,
            nodes="approx_count_known_bound",
            node_params={"n": n, "rounds_bound": d + 2,
                         "width": required_width(eps, delta)},
            max_rounds=d + 3, until="halted", tags={"eps": eps}),
         500 + t)
        for eps in eps_list
        for t, d in enumerate(diameters)
    ]
    grouped = _group_rows(_execute_cells(cells, exec_opts, "f4"), "eps")
    rng = np.random.default_rng(2026)
    for eps in eps_list:
        width = required_width(eps, delta)
        sim_errors = [abs(r["output"] / n - 1.0) for r in grouped[(eps,)]]
        # Direct Monte Carlo of the estimator (no network needed).
        draws = rng.exponential(1.0, size=(mc_trials, n, width))
        estimates = (width - 1) / draws.min(axis=1).sum(axis=1)
        mc_err = np.abs(estimates / n - 1.0)
        result.rows.append({
            "eps": eps, "delta": delta, "width": width,
            "mean_rel_err_sim": float(np.mean(sim_errors)),
            "mean_rel_err_mc": float(mc_err.mean()),
            "p95_rel_err_mc": float(np.quantile(mc_err, 0.95)),
            "coverage_mc": float((mc_err <= eps).mean()),
            "coverage_analytic": 1.0 - failure_probability(width, eps),
            "sim_trials": sim_trials, "mc_trials": mc_trials,
        })
    result.tables["f4"] = render_table(
        result.rows, title=f"F4 — accuracy at N={n} (target coverage {1-delta})")
    result.notes = (
        "Coverage (fraction of trials within (1±eps)N) matches the exact "
        "Gamma-tail analytic prediction; in-network minima equal direct "
        "minima, so the large-trial Monte Carlo extends the full "
        "simulations faithfully.")
    return result


# --------------------------------------------------------------------------
# T2 — adversary robustness for Max & Consensus
# --------------------------------------------------------------------------

#: T2's adversary zoo: row label -> (schedule builder, params beyond n).
_T2_ADVERSARIES: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "static_line": ("static_line", {}),
    "static_expander": ("static", {"topology": "expander"}),
    "fresh_random": ("fresh_spanning", {}),
    "handoff_T2": ("overlap_handoff", {"T": 2}),
    "alternating": ("alternating_matchings", {}),
    "churn": ("edge_churn", {"tree_seed": 7}),
    "mobility_T2": ("repaired_mobility", {"T": 2}),
    "adaptive_throttle": ("cut_throttle", {}),
}

#: T2's problems: row label -> (node builder, oracle).
_T2_PROBLEMS: Dict[str, Tuple[str, str]] = {
    "max_ours": ("sublinear_max_modvalue", "max_modvalue"),
    "consensus_ours": ("sublinear_consensus", "consensus_valid"),
    "count_ours": ("exact_count", "count_exact"),
}


def run_t2(quick: bool = False, *,
           exec_opts: Optional[ExecOptions] = None) -> ExperimentResult:
    """T2: Max / Consensus / Count across the adversary zoo."""
    n = 24 if quick else 96
    seeds = [1] if quick else [1, 2, 3]
    result = ExperimentResult("T2", f"Adversary robustness at N={n}")
    baselines = {"max_ours": flood_rounds(n),
                 "consensus_ours": flood_rounds(n),
                 "count_ours": klo_rounds(n)}
    specs = {
        (adv_name, prob_name): TrialSpec(
            schedule=schedule, schedule_params={"n": n, **params},
            nodes=nodes, node_params={"n": n},
            max_rounds=60 * n + 4000, until="quiescent",
            quiescence_window=max(64, n // 2), oracle=oracle,
            tags={"adversary": adv_name, "problem": prob_name})
        for adv_name, (schedule, params) in _T2_ADVERSARIES.items()
        for prob_name, (nodes, oracle) in _T2_PROBLEMS.items()
    }
    cells = [(spec, seed) for spec in specs.values() for seed in seeds]
    grouped = _group_rows(_execute_cells(cells, exec_opts, "t2"),
                          "adversary", "problem")
    for (adv_name, prob_name), spec in specs.items():
        measured = grouped[(adv_name, prob_name)]
        ds = []
        for seed in seeds:
            sched = spec.build_schedule(seed)
            # Adaptive schedules define d only post hoc.
            if not (hasattr(sched, "_recorded")
                    or hasattr(sched, "decide_edges")):
                ds.append(dynamic_diameter(sched))
        result.rows.append({
            "adversary": adv_name, "problem": prob_name,
            "d": (float(np.mean(ds)) if ds else None),
            "rounds": summarize(
                [float(_row_rounds(r)) for r in measured]).mean,
            "baseline_rounds": float(baselines[prob_name]),
            "correct": all(r["correct"] for r in measured),
        })
    result.tables["t2"] = render_table(
        result.rows, title=f"T2 — rounds across adversaries (N={n})")
    result.notes = (
        "All runs correct under every adversary.  Low-d schedules finish "
        "in ~3d rounds, far below the known-N baselines; the static line "
        "and the adaptive throttle realise d = Theta(N), where ours "
        "degrades to Theta(N) — matching the information-propagation "
        "lower bound, not a deficiency of the algorithm.")
    return result


# --------------------------------------------------------------------------
# F5 — crossover points
# --------------------------------------------------------------------------

def run_f5(quick: bool = False,
           t1: Optional[ExperimentResult] = None, *,
           exec_opts: Optional[ExecOptions] = None) -> ExperimentResult:
    """F5: smallest N at which the core Count beats each baseline."""
    t1 = t1 or run_t1(quick=quick, exec_opts=exec_opts)
    result = ExperimentResult(
        "F5", "Crossover: smallest N where ours beats each baseline")
    ours_rows = [r for r in t1.rows if r["algorithm"] == "exact_count_ours"]
    ns = [r["n"] for r in ours_rows]
    ds = [r["d"] for r in ours_rows]
    rounds = [r["rounds"] for r in ours_rows]
    # Calibrate ours: rounds ≈ alpha * d, d ≈ beta * log2(N) on these dynamics.
    alpha = float(np.mean([rd / d for rd, d in zip(rounds, ds)]))
    beta = float(np.mean([d / math.log2(n_) for d, n_ in zip(ds, ns)]))

    def ours_model(n_: int) -> float:
        return alpha * beta * math.log2(max(2, n_))

    baselines: Dict[str, Callable[[int], float]] = {
        "klo_count": lambda n_: float(klo_rounds(n_)),
        "flooding_knownN": lambda n_: float(flood_rounds(n_)),
    }
    for name, model in baselines.items():
        predicted = crossover_n(ours_model, model, n_min=2)
        # Measured crossover from the T1 rows, when visible in range.
        measured = None
        for r_ours in ours_rows:
            base_row = next(
                (r for r in t1.rows
                 if r["algorithm"] == ("klo_count" if name == "klo_count"
                                       else "token_dissemination_knownN")
                 and r["n"] == r_ours["n"]), None)
            if base_row and r_ours["rounds"] < base_row["rounds"]:
                measured = r_ours["n"]
                break
        result.rows.append({
            "baseline": name,
            "ours_model": f"{alpha:.2f} * {beta:.2f} * log2(N)",
            "crossover_N_predicted": predicted,
            "crossover_N_measured_at_most": measured,
        })
    result.tables["f5"] = render_table(
        result.rows, title="F5 — crossover points")
    result.notes = (
        "The calibrated ours-model alpha*beta*log2(N) crosses below the "
        "Theta(N^2) KLO curve at single-digit N and below the Theta(N) "
        "flooding curve shortly after — consistent with the measured "
        "rows, where ours already wins at the smallest simulated sizes.")
    return result


# --------------------------------------------------------------------------
# F6 — bit complexity
# --------------------------------------------------------------------------

def run_f6(quick: bool = False, *,
           exec_opts: Optional[ExecOptions] = None) -> ExperimentResult:
    """F6: total transmitted bits and max message size per algorithm."""
    T = 2
    ns = [16, 32] if quick else [32, 64, 128]
    seeds = [1] if quick else [1, 2]
    result = ExperimentResult(
        "F6", "Bit complexity: total broadcast bits and max message size")

    def pipelined(n: int) -> TrialSpec:
        return TrialSpec(
            schedule="lowdiam_handoff", schedule_params={"n": n, "T": T},
            nodes="pipelined_approx_count",
            node_params={"n": n, "words_per_message": 4, "width": 40,
                         "strategy": "greedy"},
            max_rounds=40 * n + 4000, until="quiescent",
            quiescence_window=64)

    def pipelined_exact(n: int) -> TrialSpec:
        return TrialSpec(
            schedule="lowdiam_handoff", schedule_params={"n": n, "T": T},
            nodes="pipelined_exact_count",
            node_params={"n": n, "ids_per_message": 4},
            max_rounds=80 * n + 8000, until="quiescent",
            quiescence_window=96, oracle="count_exact")

    algos = dict(_count_specs(T))
    algos["pipelined_approx_w4"] = pipelined
    algos["pipelined_exact_w4"] = pipelined_exact
    klo_cap = 16 if quick else 32
    cells = [
        (make(n).with_tags(algorithm=name, n=n), seed)
        for n in ns
        for name, make in algos.items()
        if not (name == "klo_count" and n > klo_cap)
        for seed in seeds
    ]
    grouped = _group_rows(_execute_cells(cells, exec_opts, "f6"),
                          "algorithm", "n")
    for n in ns:
        for name in algos:
            if name == "klo_count" and n > klo_cap:
                continue
            measured = grouped[(name, n)]
            bits = [r["broadcast_bits"] for r in measured]
            maxbits = [r["max_message_bits"] for r in measured]
            rounds = [_row_rounds(r) for r in measured]
            result.rows.append({
                "algorithm": name, "n": n,
                "rounds": summarize([float(v) for v in rounds]).mean,
                "total_broadcast_bits": summarize(
                    [float(v) for v in bits]).mean,
                "max_message_bits": max(maxbits),
            })
    result.tables["f6"] = render_table(
        result.rows, title="F6 — bit complexity (T=2, low-d dynamics)")
    result.notes = (
        "Exact variants (ours and KLO) ship Theta(N log N)-bit sets; the "
        "sketch variants cap messages at O(eps^-2) words independent of "
        "N, and the pipelined variant respects a hard 4-words-per-message "
        "budget — the bandwidth/rounds trade-off of ablation T3(d).")
    return result


# --------------------------------------------------------------------------
# T3 — ablations
# --------------------------------------------------------------------------

def run_t3(quick: bool = False, *,
           exec_opts: Optional[ExecOptions] = None) -> ExperimentResult:
    """T3: ablations of the reconstruction's design choices."""
    n = 24 if quick else 96
    T = 2
    seeds = [1] if quick else [1, 2, 3]
    result = ExperimentResult("T3", f"Ablations at N={n}, T={T}")
    schedule = {"schedule": "lowdiam_handoff",
                "schedule_params": {"n": n, "T": T}}

    # (a)+(b) controller knobs: growth and initial window.
    controllers = {
        f"growth={growth},init_window={init}":
            {"initial_window": init, "window_growth": growth}
        for growth in [2, 4, 8] for init in [1, 8]
    }
    cells = [
        (TrialSpec(
            **schedule, nodes="exact_count", node_params={"n": n, **knobs},
            max_rounds=40 * n + 4000, until="quiescent",
            quiescence_window=64, oracle="count_exact",
            tags={"ablation": "controller", "variant": variant}),
         seed)
        for variant, knobs in controllers.items() for seed in seeds
    ]
    # (d) pipelining strategy under a 4-word budget.
    strategies = ["tdm", "greedy"]
    cells += [
        (TrialSpec(
            **schedule, nodes="pipelined_approx_count",
            node_params={"n": n, "words_per_message": 4, "width": 40,
                         "strategy": strategy},
            max_rounds=100 * n + 8000, until="quiescent",
            quiescence_window=80,
            tags={"ablation": "pipelining", "variant": strategy}),
         seed)
        for strategy in strategies for seed in seeds
    ]
    grouped = _group_rows(_execute_cells(cells, exec_opts, "t3"),
                          "ablation", "variant")

    for variant in controllers:
        measured = grouped[("controller", variant)]
        result.rows.append({
            "ablation": "controller", "variant": variant,
            "rounds": summarize(
                [float(_row_rounds(r)) for r in measured]).mean,
            "retractions": summarize(
                [float(r["retractions"]) for r in measured]).mean,
            "metric": "decision rounds / total retractions",
        })

    # (c) sketch family at equal width.
    width = 64
    rng = np.random.default_rng(11)
    for family, sk in [("exponential", ExponentialCountSketch(width)),
                       ("geometric", GeometricCountSketch(width))]:
        errs = []
        trials = 200 if quick else 2000
        for _ in range(trials):
            draws = np.stack([sk.draw(rng) for _ in range(n)])
            est = sk.estimate(draws.min(axis=0))
            errs.append(abs(est / n - 1.0))
        result.rows.append({
            "ablation": "sketch_family", "variant": family,
            "rounds": None,
            "retractions": None,
            "metric": f"mean rel err={float(np.mean(errs)):.3f} "
                      f"(width {width}, {sk.message_bits()} bits/msg)",
        })

    # (c2) KLO guess-growth: the baseline has the same knob; its exact
    # closed form lets us ablate it without simulation.
    from ..baselines.klo import total_rounds_prediction

    n_klo = 64 if quick else 256
    for growth in [2, 3, 4, 8]:
        result.rows.append({
            "ablation": "klo_guess_growth", "variant": f"growth={growth}",
            "rounds": float(total_rounds_prediction(n_klo,
                                                    guess_growth=growth)),
            "retractions": None,
            "metric": f"exact closed-form rounds at N={n_klo}",
        })

    for strategy in strategies:
        measured = grouped[("pipelining", strategy)]
        result.rows.append({
            "ablation": "pipelining", "variant": strategy,
            "rounds": summarize(
                [float(_row_rounds(r)) for r in measured]).mean,
            "retractions": None,
            "metric": "decision rounds under 4-word budget",
        })

    result.tables["t3"] = render_table(
        result.rows,
        columns=["ablation", "variant", "rounds", "retractions", "metric"],
        title="T3 — ablations")
    result.notes = (
        "Larger controller growth trades retractions for a longer final "
        "wait; the exponential sketch dominates the geometric one at "
        "equal width; greedy pipelining beats TDM by keeping fresh "
        "improvements on the wire.")
    return result


# --------------------------------------------------------------------------
# X1 — the cost of halting (extension, DESIGN.md S8)
# --------------------------------------------------------------------------

def run_x1(quick: bool = False, *,
           exec_opts: Optional[ExecOptions] = None) -> ExperimentResult:
    """X1: halting-guarantee ladder for zero-knowledge exact Count.

    Three algorithms, all knowing nothing, all outputting exact counts:
    stabilizing ``O(d)`` (ExactCount), halting-w.h.p. ``O(N)``
    (HybridCount), halting-deterministic ``Θ(N²)`` (KLO) — each step up
    in termination strength costs roughly a factor of the next scale
    parameter.
    """
    T = 2
    ns = [8, 16, 32] if quick else [16, 32, 64, 128]
    klo_cap = 16 if quick else 64
    seeds = [1] if quick else [1, 2, 3]
    result = ExperimentResult(
        "X1", "The cost of halting: exact Count with zero knowledge")

    def hybrid(n: int) -> TrialSpec:
        return TrialSpec(
            schedule="lowdiam_handoff", schedule_params={"n": n, "T": T},
            nodes="hybrid_count", node_params={"n": n},
            max_rounds=10 * n + 400, until="halted",
            oracle="count_exact")

    algos = {
        "exact_count_stabilizing": _count_specs(T)["exact_count_ours"],
        "hybrid_count_halting_whp": hybrid,
        "klo_halting_deterministic": _count_specs(T)["klo_count"],
    }
    guarantee = {
        "exact_count_stabilizing": "stabilizing, O(d)",
        "hybrid_count_halting_whp": "halting w.h.p., O(N)",
        "klo_halting_deterministic": "halting deterministic, Theta(N^2)",
    }
    cells = [
        (make(n).with_tags(algorithm=name, n=n), seed)
        for n in ns
        for name, make in algos.items()
        if not (name == "klo_halting_deterministic" and n > klo_cap)
        for seed in seeds
    ]
    grouped = _group_rows(_execute_cells(cells, exec_opts, "x1"),
                          "algorithm", "n")
    for n in ns:
        for name in algos:
            if name == "klo_halting_deterministic" and n > klo_cap:
                result.rows.append({
                    "algorithm": name, "n": n,
                    "guarantee": guarantee[name],
                    "rounds": klo_rounds(n), "correct": True,
                    "source": "predicted"})
                continue
            measured = grouped[(name, n)]
            rounds = [_row_rounds(r) for r in measured]
            correct = [r["correct"] for r in measured]
            result.rows.append({
                "algorithm": name, "n": n,
                "guarantee": guarantee[name],
                "rounds": summarize([float(v) for v in rounds]).mean,
                "correct": all(c for c in correct if c is not None),
                "source": "measured"})
    result.tables["x1"] = render_table(
        result.rows,
        columns=["algorithm", "n", "guarantee", "rounds", "correct",
                 "source"],
        title="X1 — termination-strength ladder (T=2, low-d dynamics)")
    result.notes = (
        "Extension beyond the abstract's scope (DESIGN.md S8): the "
        "sketch machinery yields a halting, zero-knowledge, w.h.p.-exact "
        "Count in ~1.5N rounds — a factor-N improvement over the "
        "deterministic-halting KLO baseline — while the stabilizing "
        "variant stays at O(d).  Each step up in termination strength "
        "costs about one scale factor.")
    return result


# --------------------------------------------------------------------------
# X2 — robustness under message loss (extension, DESIGN.md S8)
# --------------------------------------------------------------------------

def run_x2(quick: bool = False, *,
           exec_opts: Optional[ExecOptions] = None) -> ExperimentResult:
    """X2: behaviour beyond the promise — random message loss.

    Loss silently weakens the adversary's promise (the effective graph
    is a random subgraph of the promised one).  Measured: the stabilizing
    core stays exact and merely slows down smoothly with the loss rate;
    the halting known-bound variant, whose correctness *was* the promise,
    collapses.
    """
    n = 24 if quick else 64
    T = 2
    losses = [0.0, 0.3, 0.6] if quick else [0.0, 0.2, 0.4, 0.6, 0.8]
    seeds = [1] if quick else [1, 2, 3]
    result = ExperimentResult(
        "X2", f"Robustness under message loss at N={n}")
    # Schedule seed s, node randomness from seed s+10; the known-bound
    # variant halts after twice the (loss-free) dynamic diameter.
    diameters = {seed: dynamic_diameter(_lowdiam_schedule(n, T, seed))
                 for seed in seeds}
    schedule = {"schedule": "lowdiam_handoff",
                "schedule_params": {"n": n, "T": T}}
    cells = []
    for loss in losses:
        for seed in seeds:
            d = diameters[seed]
            cells.append((TrialSpec(
                **schedule, schedule_seed=seed, loss_rate=loss,
                nodes="exact_count", node_params={"n": n},
                max_rounds=200 * n + 8000, until="quiescent",
                quiescence_window=max(96, n), oracle="count_exact",
                tags={"variant": "stabilizing", "loss_rate": loss}),
                seed + 10))
            cells.append((TrialSpec(
                **schedule, schedule_seed=seed, loss_rate=loss,
                nodes="exact_count_known_bound",
                node_params={"n": n, "rounds_bound": 2 * d},
                max_rounds=2 * d + 1, oracle="count_exact",
                tags={"variant": "known_bound", "loss_rate": loss}),
                seed + 10))
    grouped = _group_rows(_execute_cells(cells, exec_opts, "x2"),
                          "variant", "loss_rate")
    for loss in losses:
        stab = grouped[("stabilizing", loss)]
        result.rows.append({
            "loss_rate": loss,
            "stabilizing_rounds": summarize(
                [float(r["last_decision_round"]) for r in stab]).mean,
            "stabilizing_correct": all(r["correct"] for r in stab),
            "known_bound_2d_correct": all(
                r["correct"] for r in grouped[("known_bound", loss)]),
        })
    result.tables["x2"] = render_table(
        result.rows, title=f"X2 — message loss (N={n}, T={T})")
    result.notes = (
        "Extension beyond the paper's fault-free model (engine "
        "loss_rate): the stabilizing algorithms' correctness never "
        "depended on the promise holding exactly — only on information "
        "eventually flowing — so they stay exact and degrade smoothly in "
        "rounds; the halting known-bound variant silently returns wrong "
        "counts once the promise its bound encoded is violated.")
    return result


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "t1": run_t1,
    "f1": run_f1,
    "f2": run_f2,
    "f3": run_f3,
    "f4": run_f4,
    "t2": run_t2,
    "f5": run_f5,
    "f6": run_f6,
    "t3": run_t3,
    "x1": run_x1,
    "x2": run_x2,
}


def run_experiment(exp_id: str, quick: bool = False,
                   exec_opts: Optional[ExecOptions] = None
                   ) -> ExperimentResult:
    """Run the experiment with the given id (case-insensitive).

    *exec_opts* configures the :mod:`repro.exec` executor (workers,
    result cache, resume) that runs the experiment's trials; ``None``
    runs them serially without a cache.
    """
    key = exp_id.lower()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[key](quick=quick, exec_opts=exec_opts)
