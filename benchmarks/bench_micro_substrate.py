"""Engine fast-path vs reference-loop throughput.

Times rounds/sec of the per-node fast tier against the reference loops
on a T=4 overlap-handoff schedule with a no-op broadcast node, so the
difference is all substrate (see ``docs/PERFORMANCE.md``).  Each N row
measures the two engines alternately three times (five in the smoke
gate) and reports the pair with the median speedup.

    python benchmarks/bench_micro_substrate.py

writes ``results/BENCH_engine.json`` and exits non-zero unless the fast
path clears 3x at N=1024.  The module doubles as the CI smoke gate::

    python benchmarks/bench_micro_substrate.py --smoke

which writes ``results/bench_smoke.json`` and exits non-zero when the
fast-path speedup regresses more than 25% against the committed
``results/bench_smoke_baseline.json`` (speedup ratios, not absolute
timings, so the gate is machine-portable).
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
from repro.dynamics import OverlapHandoffAdversary
from repro.simnet.node import Algorithm

from paired import PAIRS, median_pair

RESULTS_DIR = os.environ.get(
    "REPRO_RESULTS_DIR",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "results"),
)

#: Rounds timed per (engine, N) cell; the smoke gate uses the smaller
#: budget so a CI run stays under ~30 seconds.
FULL_ROUNDS = {64: 3000, 256: 1000, 1024: 300}
SMOKE_ROUNDS = {64: 600, 256: 300, 1024: 120}

#: Alternating tier pairs per smoke row: the N=256 row's speedup spreads
#: too widely over three pairs on a busy machine to gate its median.
SMOKE_PAIRS = 5


class _NullBroadcast(Algorithm):
    """Minimal node: constant broadcast, no decisions.

    Measures the engine's own per-round overhead — compose/deliver are
    near-free, so rounds/sec differences are all substrate.
    """

    name = "null_broadcast"

    def compose(self, ctx):
        return 1

    def deliver(self, ctx, inbox):
        self.mark_changed(False)


def _measure_rounds_per_sec(engine: str, n: int, rounds: int,
                            warmup: int = 5, reps: int = 3) -> float:
    """Best-of-*reps* rounds/sec of *engine* on an N=n T=4 handoff schedule."""
    best = 0.0
    for _ in range(reps):
        sched = OverlapHandoffAdversary(n, 4, noise_edges=0, seed=0)
        nodes = [_NullBroadcast(i) for i in range(n)]
        sim = Simulator(sched, nodes, rng=RngRegistry(0), engine=engine)
        for _ in range(warmup):
            sim.step()
        start = perf_counter()
        for _ in range(rounds):
            sim.step()
        best = max(best, rounds / (perf_counter() - start))
    return best


def engine_comparison(ns=(64, 256, 1024), rounds_by_n=None, pairs=PAIRS):
    """Rounds/sec of both engines per N, with the fast/reference speedup
    of the median of *pairs* interleaved measurement pairs."""
    rounds_by_n = rounds_by_n or FULL_ROUNDS
    rows = []
    for n in ns:
        rounds = rounds_by_n[n]
        fast, reference = median_pair(
            lambda: _measure_rounds_per_sec("fast", n, rounds),
            lambda: _measure_rounds_per_sec("reference", n, rounds), pairs)
        rows.append({
            "n": n,
            "rounds_timed": rounds,
            "fast_rounds_per_sec": round(fast, 1),
            "reference_rounds_per_sec": round(reference, 1),
            "speedup": round(fast / reference, 3),
        })
    return rows


def _print_rows(rows):
    for row in rows:
        print(f"  N={row['n']}: fast {row['fast_rounds_per_sec']:.0f} r/s, "
              f"reference {row['reference_rounds_per_sec']:.0f} r/s "
              f"({row['speedup']:.2f}x)")


# --------------------------------------------------------------------------
# CI smoke gate: --smoke compares the fast/reference speedup ratios
# against the committed baseline.
# --------------------------------------------------------------------------

def run_smoke(baseline_path=None, out_path=None,
              max_regression: float = 0.25) -> int:
    """Measure smoke-sized speedups, persist them, gate against baseline.

    Returns a process exit code: 0 when every N's speedup is within
    *max_regression* of the committed baseline's (or no baseline exists
    yet), 1 otherwise.  Ratios are compared, not absolute rounds/sec, so
    the gate holds across machines of different speeds.
    """
    baseline_path = baseline_path or os.path.join(
        RESULTS_DIR, "bench_smoke_baseline.json")
    out_path = out_path or os.path.join(RESULTS_DIR, "bench_smoke.json")
    rows = engine_comparison(rounds_by_n=SMOKE_ROUNDS, pairs=SMOKE_PAIRS)
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump({"bench": "engine_smoke", "rows": rows}, fh, indent=2)
        fh.write("\n")
    print(f"[bench-smoke] -> {out_path}")
    _print_rows(rows)
    if not os.path.exists(baseline_path):
        print(f"[bench-smoke] no baseline at {baseline_path}; skipping gate")
        return 0
    with open(baseline_path) as fh:
        baseline = {row["n"]: row for row in json.load(fh)["rows"]}
    failed = False
    for row in rows:
        base = baseline.get(row["n"])
        if base is None:
            continue
        floor = (1.0 - max_regression) * base["speedup"]
        verdict = "ok" if row["speedup"] >= floor else "REGRESSED"
        print(f"  N={row['n']}: speedup {row['speedup']:.2f}x vs baseline "
              f"{base['speedup']:.2f}x (floor {floor:.2f}x) -> {verdict}")
        if row["speedup"] < floor:
            failed = True
    return 1 if failed else 0


#: Acceptance bar: fast path over the reference loops at this N.
ABSOLUTE_BAR_N = 1024
ABSOLUTE_BAR = 3.0


def run_full(out_path=None) -> int:
    """Full-size comparison, persisted as ``results/BENCH_engine.json``.

    Returns 1 when the fast path misses the 3x bar at N=1024, else 0.
    """
    out_path = out_path or os.path.join(RESULTS_DIR, "BENCH_engine.json")
    rows = engine_comparison()
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump({"bench": "engine_fast_vs_reference", "rows": rows}, fh,
                  indent=2)
        fh.write("\n")
    print(f"[engine bench] -> {out_path}")
    _print_rows(rows)
    bar_row = next(r for r in rows if r["n"] == ABSOLUTE_BAR_N)
    if bar_row["speedup"] < ABSOLUTE_BAR:
        print(f"  N={ABSOLUTE_BAR_N}: speedup {bar_row['speedup']:.2f}x is "
              f"below the {ABSOLUTE_BAR:.1f}x acceptance bar -> REGRESSED")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Engine fast-vs-reference benchmark / CI smoke gate")
    parser.add_argument("--smoke", action="store_true",
                        help="smoke-sized run gated against the committed "
                             "baseline (results/bench_smoke_baseline.json)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write the smoke measurements as the new "
                             "committed baseline instead of gating")
    args = parser.parse_args(argv)
    if args.write_baseline:
        baseline_path = os.path.join(RESULTS_DIR, "bench_smoke_baseline.json")
        rows = engine_comparison(rounds_by_n=SMOKE_ROUNDS, pairs=SMOKE_PAIRS)
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(baseline_path, "w") as fh:
            json.dump({"bench": "engine_smoke", "rows": rows}, fh, indent=2)
            fh.write("\n")
        print(f"[bench-smoke] baseline -> {baseline_path}")
        for row in rows:
            print(f"  N={row['n']}: {row['speedup']:.2f}x")
        return 0
    if args.smoke:
        return run_smoke()
    return run_full()


if __name__ == "__main__":
    sys.exit(main())
