"""``python -m repro.report`` — render ``results/`` into the generated docs.

Two documents come out of the saved artefacts:

* ``EXPERIMENTS.md`` — the narrative record: per experiment, what the
  paper leads us to expect and the measured tables and figures
  (``results/<id>/report.txt``) verbatim;
* ``docs/RESULTS.md`` — the condensed record: the per-experiment
  ``rows.json`` files under ``results/{t1,f1..f6,t2,t3,x1,x2}``, the
  benchmark records (``BENCH_engine.json``, ``BENCH_kernels.json``,
  ``bench_smoke.json``), the claim verdicts from
  :mod:`repro.harness.claims`, and fresh power-law fits from
  :mod:`repro.analysis.fitting`, folded into one page.

Determinism is load-bearing: the output contains no timestamps or
machine state, so regenerating from unchanged artefacts is
byte-identical, and ``make docs-check`` can fail CI whenever a committed
document drifts from the artefacts it claims to describe.

Usage::

    python -m repro.report                      # rewrite both documents
    python -m repro.report --results results --out .
    python -m repro.report --check              # exit 1 on drift, write nothing

``--check`` also fails when the stored F1 or F5 rows differ from F1 or
F5 recomputed from the stored T1 rows, so a stale ``results/f1`` or
``results/f5`` cannot pass.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from .analysis.fitting import power_law_fit
from .analysis.tables import render_markdown
from .harness.claims import check_claims
from .harness.experiments import EXPERIMENTS, f1_of_t1, f5_of_t1

__all__ = ["build_experiments_markdown", "build_results_markdown", "main"]

# What the paper (abstract + the prior work it cites) leads us to expect,
# experiment by experiment.  The generator pairs these with the measured
# rows.
_EXPECTATIONS: Dict[str, str] = {
    "t1": ("Paper claim: Count complexity with no Ω(N) term under "
           "constant T.  Expected: baselines grow with N (KLO ~N², token "
           "dissemination ≳N) while the core algorithms track d = "
           "O(log N) and stay flat."),
    "f1": ("Expected log-log slopes: KLO ≈ 2, token dissemination ≈ 1–1.5,"
           " core algorithms ≈ 0 (polylog)."),
    "f2": ("Expected: core algorithms flat in T (constant T suffices — "
           "the headline); KLO cannot exploit T.  The windowed-throttle "
           "token-dissemination series should trend downward with T, but "
           "only weakly: the true Ω(N·k/T) lower-bound adversary "
           "(charging argument, Dutta et al. SODA'13) is not implemented "
           "here — treat that series as directional only."),
    "f3": ("Expected: core algorithms linear in d and below the proved "
           "(1+growth)·d bound; known-N flooding pays N−1 regardless; "
           "curves meet near d = Θ(N) (the lower-bound regime)."),
    "f4": ("Expected: measured coverage of the (1±ε) interval matches "
           "the exact Gamma-tail prediction (≈ 1−δ)."),
    "t2": ("Expected: correct outputs under every adversary; ~3d rounds "
           "on low-d schedules; Θ(N) only where the adversary forces "
           "d = Θ(N) (static line, adaptive throttle)."),
    "f5": ("Expected: the calibrated core model crosses below KLO at "
           "single-digit N and below known-N flooding soon after."),
    "f6": ("Expected: sketch-based messages are O(ε⁻²) words independent "
           "of N; exact/KLO messages grow as Θ(N log N) bits."),
    "t3": ("Expected: growth 2 ≈ best stabilization-vs-retraction "
           "trade-off; exponential sketch beats geometric at equal "
           "width; greedy pipelining beats TDM."),
    "x1": ("Extension (DESIGN.md S8), not a paper table: each step up in "
           "termination strength costs a scale factor — stabilizing "
           "O(d) < halting-w.h.p. ~1.5N < halting-deterministic Θ(N²)."),
    "x2": ("Extension, not a paper table: under random message loss the "
           "stabilizing core stays exact with smoothly growing rounds; "
           "the halting known-bound variant breaks once the promise its "
           "bound encoded is violated."),
}

_EXPERIMENTS_HEADER = """# EXPERIMENTS — measured results of the reconstructed evaluation

> Generated by ``python -m repro.report`` from ``{results_dir}``.
> Regenerate the underlying data with ``repro-experiments --all --out
> {results_dir}``.

**Reading guide.**  The original paper's evaluation section was not
available (see DESIGN.md §0); the experiments below are the
reconstruction defined in DESIGN.md §3.  "Expected" states what the
abstract's claims and the cited prior work predict; the measured tables
and ASCII figures follow verbatim from the run artefacts.  Reproduction
success = the *shape* matches (who wins, slopes, crossovers), not
absolute constants — the substrate here is a simulator, not the authors'
environment.

**Regenerating faster.**  ``repro-experiments`` runs the cells of all
requested experiments in one pass of the ``repro.exec`` executor, so a
cell several experiments share executes once.  ``--workers/--cache-dir``
configure that pass: e.g. ``repro-experiments --all --workers 4
--cache-dir .repro-cache --out {results_dir}`` fans the cells across
four processes and caches each row content-addressed on disk, so a
rerun — after an interrupt too — executes only the missing cells.
Parallel rows are byte-identical to serial rows, so the artefacts — and
this document — are unaffected by how they were produced.  See
``docs/EXECUTOR.md``.

**Engine selection.**  ``--engine fast|fast-nobatch|reference`` picks
the simulator implementation for every trial: ``fast`` (the default)
dispatches whole-population struct-of-arrays batch kernels where the
algorithm provides them and the vectorised per-node path elsewhere;
``fast-nobatch`` disables only the kernels; ``reference`` runs the
plain per-node loops.  All three produce bit-identical rows — the
equivalence is tested — so engine choice never affects this document.
See ``docs/PERFORMANCE.md``.

**Profiling and observability.**  ``--profile`` prints, for each
experiment and once for the whole run, the per-phase wall-clock split
(``compose`` / ``reveal`` / ``deliver`` / ``drain`` seconds and
percentages over the freshly executed trials) and the per-tier round
counts (``batch`` / ``fast`` / ``reference``) — the quick check that
the kernels are engaging.
``--events DIR`` records a schema-validated JSONL event stream per
trial (decisions, tier selection, cache counters) and merges them into
``DIR/events.jsonl``; see ``docs/OBSERVABILITY.md``.  Neither flag
changes measured rows.

**The condensed record.**  ``python -m repro.report`` renders
{results_dir}/ into ``docs/RESULTS.md`` — claim verdicts, scaling
fits, every row table, and the benchmark record in one page; ``make
docs-check`` fails CI when either generated document drifts from the
artefacts.
"""


_RESULTS_HEADER = """# RESULTS — the measured record, in one page

> Generated by ``python -m repro.report`` from ``{results_dir}``.
> Do not edit by hand: ``make docs`` regenerates this file and
> ``make docs-check`` fails CI when it drifts from the artefacts.
> Regenerate the experiment artefacts with
> ``repro-experiments --all --out {results_dir}``; the benchmark
> records come from ``make bench-smoke`` and
> ``python benchmarks/bench_micro_substrate.py``.

This page condenses the full evaluation into tables: the certified
claim verdicts, the headline scaling fits, every experiment's measured
rows, and the engine benchmark record.  The narrative companion —
what each experiment reconstructs and what shape was expected — is
[EXPERIMENTS.md](../EXPERIMENTS.md); the observability layer that can
record any of these runs event-by-event is
[OBSERVABILITY.md](OBSERVABILITY.md).
"""


def _load_json(path: str) -> Optional[Dict[str, Any]]:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def _not_yet_run(results_dir: str, exp_id: str) -> str:
    return (f"## {exp_id.upper()}\n\n*(not yet run — execute "
            f"`repro-experiments {exp_id} --out {results_dir}`)*")


def build_experiments_markdown(results_dir: str = "results") -> str:
    """Assemble EXPERIMENTS.md: each experiment's expectation and report."""
    parts = [_EXPERIMENTS_HEADER.format(results_dir=results_dir)]
    for exp_id in EXPERIMENTS:
        exp_dir = os.path.join(results_dir, exp_id)
        report_path = os.path.join(exp_dir, "report.txt")
        if not os.path.exists(report_path):
            parts.append(_not_yet_run(results_dir, exp_id))
            continue
        title = exp_id.upper()
        doc = _load_json(os.path.join(exp_dir, "rows.json"))
        if doc is not None:
            title = f"{exp_id.upper()} — {doc['title']}"
        with open(report_path) as fh:
            body = fh.read().strip()
        expectation = _EXPECTATIONS.get(exp_id, "")
        parts.append(
            f"## {title}\n\n**Expected.** {expectation}\n\n"
            f"**Measured.**\n\n```text\n{body}\n```")
    return "\n\n".join(parts) + "\n"


def _claims_section(results_dir: str) -> str:
    claims = check_claims(results_dir)
    rows = [c.as_row() for c in claims]
    table = render_markdown(
        rows, columns=["claim", "verdict", "statement", "evidence"])
    holds = sum(1 for c in claims if c.verdict == "HOLDS")
    return (f"## Claim certification\n\n"
            f"{holds}/{len(claims)} claims HOLD "
            f"(`repro-experiments --claims`; see `repro.harness.claims` "
            f"for what each one checks):\n\n{table}")


def _fits_section(results_dir: str) -> Optional[str]:
    """Fresh power-law fits of rounds vs N from the measured T1 rows.

    F1 stores the fits the harness computed at run time, over every T1
    row; re-fitting here from the measured rows alone shows what the
    exponents rest on without T1's predicted points.
    """
    doc = _load_json(os.path.join(results_dir, "t1", "rows.json"))
    if doc is None:
        return None
    series: Dict[str, List[Dict[str, Any]]] = {}
    for row in doc["rows"]:
        if row.get("source") == "measured" and row.get("rounds"):
            series.setdefault(row["algorithm"], []).append(row)
    fit_rows = []
    for algorithm in sorted(series):
        rows = sorted(series[algorithm], key=lambda r: r["n"])
        if len(rows) < 2:
            continue
        fit = power_law_fit([r["n"] for r in rows],
                            [r["rounds"] for r in rows])
        fit_rows.append({
            "algorithm": algorithm,
            "points": len(rows),
            "exponent_b": fit.exponent,
            "coefficient_a": fit.coefficient,
            "r_squared": fit.r_squared,
        })
    if not fit_rows:
        return None
    return ("## Scaling fits (rounds ≈ a · N^b, re-fit from T1)\n\n"
            "Computed from the measured T1 rows alone by "
            "`repro.analysis.fitting.power_law_fit` at generation time. "
            "F1 also fits T1's predicted rows, so its exponents differ "
            "where T1 has them (KLO); `make docs-check` fails when F1 no "
            "longer equals that fit of every T1 row:\n\n"
            + render_markdown(fit_rows))


#: Experiments derived from T1's rows alone, and their derivations.
_OF_T1 = {"f1": f1_of_t1, "f5": f5_of_t1}


def _derived_drift(results_dir: str) -> List[str]:
    """Where the stored F1 or F5 rows differ from those derived from T1's.

    Both are pure functions of T1's rows, so deriving them from the
    committed T1 rows must give back their committed rows exactly; a
    difference means one of the directories is stale.  Returns one
    message per differing row, named by its first column; empty when
    they agree or a directory is missing.
    """
    t1 = _load_json(os.path.join(results_dir, "t1", "rows.json"))
    problems: List[str] = []
    for exp_id, of_t1 in _OF_T1.items():
        stored = _load_json(os.path.join(results_dir, exp_id, "rows.json"))
        if t1 is None or stored is None:
            continue
        fresh = of_t1(t1["rows"]).rows
        if fresh == stored["rows"]:
            continue
        want = {next(iter(row.values())): row for row in fresh}
        got = {next(iter(row.values())): row for row in stored["rows"]}
        hint = f"rerun `repro-experiments t1 {exp_id}` and commit both"
        problems += [
            f"{results_dir}/{exp_id} row of {name} is {got.get(name)}, "
            f"but {exp_id.upper()} from {results_dir}/t1 gives "
            f"{want.get(name)} — {hint}"
            for name in sorted(set(want) | set(got))
            if want.get(name) != got.get(name)] or [
            f"{results_dir}/{exp_id} rows are not in T1's order — {hint}"]
    return problems


def _experiment_section(results_dir: str, exp_id: str) -> str:
    doc = _load_json(os.path.join(results_dir, exp_id, "rows.json"))
    if doc is None:
        return _not_yet_run(results_dir, exp_id)
    rows = doc["rows"]
    table = render_markdown(rows) if rows else "(no rows)"
    return (f"## {exp_id.upper()} — {doc['title']}\n\n"
            f"{len(rows)} rows:\n\n{table}")


_BENCHES = [
    ("bench_smoke.json",
     "Engine smoke benchmark",
     "The CI gate (`make bench-smoke`): the vectorized fast path must "
     "beat the reference loops at every size."),
    ("BENCH_engine.json",
     "Fast path vs reference loops",
     "Full-size comparison of the per-node vectorized engine tier "
     "against the reference loops "
     "(`python benchmarks/bench_micro_substrate.py`)."),
    ("BENCH_kernels.json",
     "Batch kernels vs fast path vs reference",
     "The struct-of-arrays batch-kernel tier against the other two "
     "tiers; all three produce bit-identical results."),
]


def _bench_sections(results_dir: str) -> List[str]:
    parts: List[str] = []
    for filename, title, blurb in _BENCHES:
        doc = _load_json(os.path.join(results_dir, filename))
        if doc is None:
            continue
        meta = ", ".join(f"{k}={doc[k]}" for k in ("mode", "nodes", "schedule")
                         if k in doc)
        meta_line = f" ({meta})" if meta else ""
        section = (f"### {title}{meta_line}\n\n{blurb}\n\n"
                   + render_markdown(doc["rows"]))
        if "lossy" in doc:
            section += (
                "\n\nUnder per-edge Bernoulli loss (the `make bench-smoke` "
                "lossy gate — kernel/fast must stay above 1.0x):\n\n"
                + render_markdown([doc["lossy"]]))
        parts.append(section)
    if not parts:
        return []
    return ["## Engine benchmarks\n\n"
            "Recorded by the scripts under `benchmarks/`; methodology and "
            "current analysis in [PERFORMANCE.md](PERFORMANCE.md).\n\n"
            + "\n\n".join(parts)]


def build_results_markdown(results_dir: str = "results") -> str:
    """Assemble docs/RESULTS.md from the saved artefacts, deterministically.

    The output depends only on the artefact files — equal inputs yield
    byte-identical output in any process (the golden-docs test and
    ``make docs-check`` both rely on this).
    """
    parts = [_RESULTS_HEADER.format(results_dir=results_dir)]
    parts.append(_claims_section(results_dir))
    fits = _fits_section(results_dir)
    if fits is not None:
        parts.append(fits)
    for exp_id in EXPERIMENTS:
        parts.append(_experiment_section(results_dir, exp_id))
    parts.extend(_bench_sections(results_dir))
    return "\n\n".join(parts) + "\n"


#: Generated documents, by path relative to the output root.
_DOCUMENTS = {
    "EXPERIMENTS.md": build_experiments_markdown,
    os.path.join("docs", "RESULTS.md"): build_results_markdown,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description="Render results/ artefacts into EXPERIMENTS.md and "
                    "docs/RESULTS.md.")
    parser.add_argument("--results", default="results", metavar="DIR",
                        help="artefact directory (default: results)")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="root the documents are written under "
                             "(default: the current directory)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed documents and "
                             "exit 1 on drift without writing")
    args = parser.parse_args(argv)
    drifted = 0
    for name, build in _DOCUMENTS.items():
        path = os.path.normpath(os.path.join(args.out, name))
        text = build(args.results)
        if args.check:
            committed = ""
            if os.path.exists(path):
                with open(path) as fh:
                    committed = fh.read()
            if committed != text:
                print(f"{path} is out of date with {args.results}/ — "
                      f"run `python -m repro.report` (or `make docs`) and "
                      f"commit the result", file=sys.stderr)
                drifted += 1
            else:
                print(f"{path} is up to date with {args.results}/")
            continue
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path} ({len(text)} bytes) from {args.results}/")
    if args.check:
        for problem in _derived_drift(args.results):
            print(problem, file=sys.stderr)
            drifted += 1
    return 1 if drifted else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
