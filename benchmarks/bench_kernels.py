"""Batch-kernel tier throughput: kernel vs reference.

The batch-kernel dispatch tier (see :mod:`repro.simnet.batch` and
``docs/PERFORMANCE.md``) replaces the per-node Python fold of the
reference tier with whole-population NumPy segment-reduces.  This
benchmark measures rounds/sec of both engine tiers on the T=4
overlap-handoff schedule with
:class:`~repro.core.max_compute.SublinearMax` nodes (int payloads,
segment-max delivery) at N ∈ {256, 1024, 4096} and writes
``results/BENCH_kernels.json``.

Doubles as the CI smoke gate::

    python benchmarks/bench_kernels.py --smoke

which writes its measurements to the untracked
``results/bench_smoke.json`` (so a smoke run leaves the committed
``BENCH_kernels.json``, and the ``docs/RESULTS.md`` rendered from it,
alone) and gates four things against the committed
``results/bench_kernels_baseline.json``.  Every gated kernel/reference
ratio is the median of three pairs of runs that measure the two tiers
alternately, so one slow moment on the machine moves one pair, not the
verdict:

* per-N kernel/reference speedup ratios must stay within 25% of
  baseline (ratios, not absolute timings — machine-portable);
* so must the kernel/reference ratio of KLO's
  :class:`~repro.baselines.klo.KCommitteeCount` at N=32 on T1's T=2
  noisy handoff schedule (``klo`` row; the whole run to its halt,
  4,204 rounds, guesses k = 1 … 32, most of whose rounds fall in
  settled phases — so losing the settled-phase path fails the gate);
* and that of :class:`~repro.core.exact_count.ExactCount` at N=256 on
  the same T=4 handoff as SublinearMax (``exact_count`` row; 240 rounds
  from a fresh population, so the timed span covers both the bitset
  merges and the converged tail; in each of three pairs the kernel side
  is best of 12 reps and the reference side best of 3, each reference
  rep right after a block of 4 kernel reps);
* the kernel tier must clear an **absolute 3x** over the reference
  tier at N=1024;
* under per-edge Bernoulli loss (``loss_rate=0.2``) the kernel tier
  must still beat the reference tier outright at N=1024 — the
  loss-capable batch kernels must not regress to a slower-than-reference
  curiosity.

``--write-baseline`` refreshes the committed baseline.
"""

import argparse
import json
import os
import sys
from time import perf_counter

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # source checkout without `pip install -e .`
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import RngRegistry, Simulator
from repro.baselines.klo import KCommitteeCount
from repro.core.exact_count import ExactCount
from repro.core.max_compute import SublinearMax
from repro.dynamics import OverlapHandoffAdversary

from paired import median_of_pairs, median_pair

RESULTS_DIR = os.environ.get(
    "REPRO_RESULTS_DIR",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "results"),
)

#: Rounds timed per (tier, N) cell.  The reference loop at N=4096 is the
#: pacing item; the smoke budget keeps one full gate run near a minute.
FULL_ROUNDS = {256: 600, 1024: 200, 4096: 60}
SMOKE_ROUNDS = {256: 240, 1024: 80, 4096: 24}


def _sublinear_max_cell(n: int):
    """The SublinearMax population on the T=4 noise-free handoff."""
    return (OverlapHandoffAdversary(n, 4, noise_edges=0, seed=0),
            [SublinearMax(i, value=(i * 9176 + 37) % 100003)
             for i in range(n)])


def _exact_count_cell(n: int):
    """The ExactCount population on the T=4 noise-free handoff."""
    return (OverlapHandoffAdversary(n, 4, noise_edges=0, seed=0),
            [ExactCount(i) for i in range(n)])


def _klo_cell(n: int):
    """KLO on T1's schedule: T=2 handoff with n // 8 noise edges."""
    return (OverlapHandoffAdversary(n, 2, noise_edges=max(1, n // 8),
                                    seed=0),
            [KCommitteeCount(i) for i in range(n)])


def _measure_rounds_per_sec(engine: str, n: int, rounds: int,
                            reps: int = 2, loss_rate: float = 0.0,
                            cell=_sublinear_max_cell) -> float:
    """Best-of-*reps* rounds/sec of *engine* through ``Simulator.run``.

    ``run()`` (not bare ``step()``) so the batch tier activates.
    SublinearMax and ExactCount stabilise but never halt, and KLO at
    N=32 halts at round 4,204 (``KLO_ROUNDS``; its halting round still
    runs on the batch tier), so ``until="halted"`` executes exactly
    *rounds* rounds per rep.
    """
    best = 0.0
    for _ in range(reps):
        sched, nodes = cell(n)
        sim = Simulator(sched, nodes, rng=RngRegistry(0), engine=engine,
                        loss_rate=loss_rate)
        start = perf_counter()
        result = sim.run(max_rounds=rounds, until="halted",
                         allow_timeout=True)
        elapsed = perf_counter() - start
        assert result.rounds == rounds
        if engine == "fast" and sim.tier_rounds["batch"] != rounds:
            raise AssertionError(
                f"batch tier did not engage: {sim.tier_rounds}")
        best = max(best, rounds / elapsed)
    return best


def _kernel_vs_reference(n: int, rounds: int, **kwargs):
    """``(kernel, reference)`` rounds/sec of the median of three
    interleaved pairs.  The kernel tier is engine ``fast`` (the batch
    kernel engages), the per-node tier is engine ``reference``."""
    return median_pair(
        lambda: _measure_rounds_per_sec("fast", n, rounds, **kwargs),
        lambda: _measure_rounds_per_sec("reference", n, rounds, **kwargs))


def _row(kernel: float, reference: float, **fields):
    """A result row: *fields*, both rates and their ratio."""
    return {**fields,
            "kernel_rounds_per_sec": round(kernel, 1),
            "reference_rounds_per_sec": round(reference, 1),
            "kernel_speedup": round(kernel / reference, 3)}


def kernel_comparison(ns=(256, 1024, 4096), rounds_by_n=None):
    """Rounds/sec per tier per N, with the kernel/reference speedup."""
    rounds_by_n = rounds_by_n or FULL_ROUNDS
    return [_row(*_kernel_vs_reference(n, rounds_by_n[n]), n=n,
                 rounds_timed=rounds_by_n[n])
            for n in ns]


#: Per-edge Bernoulli loss probability for the lossy gate rows.
LOSSY_RATE = 0.2

#: N at which the lossy kernel-vs-reference comparison is measured and
#: gated.
LOSSY_N = 1024


def lossy_comparison(n=LOSSY_N, rounds=None):
    """Kernel-vs-reference rounds/sec at *n* with per-edge Bernoulli loss.

    The batch tier serves lossy runs through vectorised per-edge
    loss masks (``lossy_delivery_view``); this row proves the masked
    kernels still beat the reference tier rather than merely matching
    its results.
    """
    rounds = rounds or SMOKE_ROUNDS[n]
    return _row(*_kernel_vs_reference(n, rounds, loss_rate=LOSSY_RATE),
                n=n, loss_rate=LOSSY_RATE, rounds_timed=rounds)


#: The KLO gate row: N, rounds timed (the run to its halt, where most
#: rounds fall in settled phases) and best-of reps.
KLO_N = 32
KLO_ROUNDS = 4204
KLO_REPS = 3


def klo_comparison(n=KLO_N, rounds=KLO_ROUNDS):
    """Kernel-vs-reference rounds/sec of KLO k-committee counting at *n*."""
    return _row(*_kernel_vs_reference(n, rounds, reps=KLO_REPS,
                                      cell=_klo_cell),
                n=n, nodes="klo_count", schedule="lowdiam_handoff_T2",
                rounds_timed=rounds)


#: The ExactCount gate row: N, rounds timed and each side's best-of
#: reps per pair.  One kernel rep is about 16 ms of work and one
#: reference rep about 2.5 s, so a slow spell of the machine can cover
#: every kernel rep taken back to back while the reference reps ride it
#: out.  Each pair therefore takes its reps in blocks, 4 kernel reps
#: then 1 reference rep, three times: both sides' bests come from the
#: same few seconds.
EXACT_COUNT_N = 256
EXACT_COUNT_ROUNDS = SMOKE_ROUNDS[EXACT_COUNT_N]
EXACT_COUNT_KERNEL_REPS = 4
EXACT_COUNT_BLOCKS = 3


def _exact_count_pair(n: int, rounds: int):
    """``(kernel, reference)`` best rounds/sec over the blocks of one
    pair."""
    kernel = reference = 0.0
    for _ in range(EXACT_COUNT_BLOCKS):
        kernel = max(kernel, _measure_rounds_per_sec(
            "fast", n, rounds, reps=EXACT_COUNT_KERNEL_REPS,
            cell=_exact_count_cell))
        reference = max(reference, _measure_rounds_per_sec(
            "reference", n, rounds, reps=1, cell=_exact_count_cell))
    return kernel, reference


def exact_count_comparison(n=EXACT_COUNT_N, rounds=EXACT_COUNT_ROUNDS):
    """Kernel-vs-reference rounds/sec of stabilizing exact Count at *n*."""
    return _row(*median_of_pairs(lambda: _exact_count_pair(n, rounds)),
                n=n, nodes="exact_count", schedule="overlap_handoff_T4",
                rounds_timed=rounds)


def _dump(rows, path, mode, lossy, klo, exact_count):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    payload = {"bench": "batch_kernels", "mode": mode,
               "nodes": "sublinear_max", "schedule": "overlap_handoff_T4",
               "rows": rows, "lossy": lossy, "klo": klo,
               "exact_count": exact_count}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _print_rows(rows, lossy, klo, exact_count):
    labelled = [(f"N={row['n']}", row) for row in rows]
    labelled.append((f"N={lossy['n']} loss={lossy['loss_rate']}", lossy))
    labelled.append((f"KLO N={klo['n']}", klo))
    labelled.append((f"ExactCount N={exact_count['n']}", exact_count))
    for label, row in labelled:
        print(f"  {label}: kernel {row['kernel_rounds_per_sec']:.0f} r/s, "
              f"reference {row['reference_rounds_per_sec']:.0f} r/s "
              f"(kernel/reference {row['kernel_speedup']:.2f}x)")


#: Acceptance bar: kernel tier over the reference tier at this N.
ABSOLUTE_BAR_N = 1024
ABSOLUTE_BAR = 3.0

#: Lossy acceptance bar: the loss-masked kernels must beat (not merely
#: match) the reference tier under loss at N=1024.
LOSSY_BAR = 1.0


def run_smoke(baseline_path=None, out_path=None,
              max_regression: float = 0.25) -> int:
    """Smoke-sized measurement, persisted and gated against the baseline.

    Exit code 0 when (a) every N's kernel/reference ratio, and the KLO
    and ExactCount rows', is within *max_regression* of the committed baseline's, (b)
    the absolute kernel/reference speedup at N=1024 clears the 3x
    acceptance bar, and (c) the lossy kernel/reference ratio at N=1024
    stays above 1.0 — the loss-masked kernels must beat the reference
    tier outright.
    """
    baseline_path = baseline_path or os.path.join(
        RESULTS_DIR, "bench_kernels_baseline.json")
    out_path = out_path or os.path.join(RESULTS_DIR, "bench_smoke.json")
    rows = kernel_comparison(rounds_by_n=SMOKE_ROUNDS)
    lossy = lossy_comparison()
    klo = klo_comparison()
    exact_count = exact_count_comparison()
    _dump(rows, out_path, "smoke", lossy, klo, exact_count)
    print(f"[bench-kernels] -> {out_path}")
    _print_rows(rows, lossy, klo, exact_count)
    failed = False
    bar_row = next(r for r in rows if r["n"] == ABSOLUTE_BAR_N)
    if bar_row["kernel_speedup"] < ABSOLUTE_BAR:
        print(f"  N={ABSOLUTE_BAR_N}: kernel/reference "
              f"{bar_row['kernel_speedup']:.2f}x is below the absolute "
              f"{ABSOLUTE_BAR:.1f}x acceptance bar -> REGRESSED")
        failed = True
    if lossy["kernel_speedup"] <= LOSSY_BAR:
        print(f"  N={LOSSY_N} loss={LOSSY_RATE}: kernel/reference "
              f"{lossy['kernel_speedup']:.2f}x does not clear the "
              f"{LOSSY_BAR:.1f}x lossy bar -> REGRESSED")
        failed = True
    if os.path.exists(baseline_path):
        with open(baseline_path) as fh:
            committed = json.load(fh)
        baseline = {row["n"]: row for row in committed["rows"]}
        gated = [(f"N={row['n']}", row, baseline.get(row["n"]))
                 for row in rows]
        gated.append((f"KLO N={klo['n']}", klo, committed.get("klo")))
        gated.append((f"ExactCount N={exact_count['n']}", exact_count,
                      committed.get("exact_count")))
        for label, row, base in gated:
            if base is None:
                continue
            floor = (1.0 - max_regression) * base["kernel_speedup"]
            ok = row["kernel_speedup"] >= floor
            print(f"  {label}: kernel/reference {row['kernel_speedup']:.2f}x "
                  f"vs baseline {base['kernel_speedup']:.2f}x "
                  f"(floor {floor:.2f}x) -> {'ok' if ok else 'REGRESSED'}")
            failed = failed or not ok
    else:
        print(f"[bench-kernels] no baseline at {baseline_path}; "
              f"ratio gate skipped (absolute bar still enforced)")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Batch-kernel tier benchmark / CI smoke gate")
    parser.add_argument("--smoke", action="store_true",
                        help="smoke-sized run gated against the committed "
                             "baseline (results/bench_kernels_baseline.json) "
                             "and the absolute 3x bar at N=1024")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write the smoke measurements as the new "
                             "committed baseline instead of gating")
    args = parser.parse_args(argv)
    if args.write_baseline:
        rows = kernel_comparison(rounds_by_n=SMOKE_ROUNDS)
        lossy = lossy_comparison()
        klo = klo_comparison()
        exact_count = exact_count_comparison()
        baseline_path = os.path.join(RESULTS_DIR,
                                     "bench_kernels_baseline.json")
        _dump(rows, baseline_path, "smoke", lossy, klo, exact_count)
        print(f"[bench-kernels] baseline -> {baseline_path}")
        _print_rows(rows, lossy, klo, exact_count)
        return 0
    if args.smoke:
        return run_smoke()
    rows = kernel_comparison()
    lossy = lossy_comparison(rounds=FULL_ROUNDS[LOSSY_N])
    klo = klo_comparison()
    exact_count = exact_count_comparison()
    _dump(rows, os.path.join(RESULTS_DIR, "BENCH_kernels.json"), "full",
          lossy, klo, exact_count)
    _print_rows(rows, lossy, klo, exact_count)
    return 0


if __name__ == "__main__":
    sys.exit(main())
