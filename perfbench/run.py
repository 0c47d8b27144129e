"""End-to-end benchmark of the certified Count evaluation, with per-layer attribution.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload baseline_count --seed 1 --seconds 20 --trace 0

One *pass* runs a workload's grid of trial cells the way the evaluation
does, and certifies what it ran:

1. execute every ``(TrialSpec, seed)`` cell through the serial
   :class:`repro.exec.ParallelExecutor` into a fresh result cache;
2. replay the same cells from that cache (the ``--cache-dir`` rerun path);
3. certify every distinct schedule the cells ran on: its T-interval
   promise over the rounds executed on it, and its dynamic diameter.
   Before that, a fresh copy of the schedule builds its CSR adjacency for
   each executed round, which times the schedule and CSR layer apart
   from the engine's payload bit accounting (both fall in ``reveal``).

A run repeats passes over identical inputs for ``--seconds`` and reports
medians.  Inputs derive only from ``--seed``.  Every pass is checked: each
Count output against the true node count (exact algorithms) or a sanity
band (the sketch-based approximation), cache replays against the fresh
rows, every pass's rows against the first pass's, KLO round counts against
their closed form, and every certificate.

Times are *calibrated seconds*.  Small shared virtual machines change
speed by up to 1.6x within seconds (neighbours on the sibling hyperthread,
migration between vCPUs), which no number of repetitions averages out.  So
every timed unit is bracketed by a fixed, program-independent interpreter
kernel, and its wall time is scaled to a CPU on which that kernel takes
:data:`CALIBRATION_REFERENCE_S`.  The program cannot change the kernel's
time, so a slower program still reads slower.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` turns on the
engine's per-phase timing (which routes the fast tier through its
split-phase loop) and prints per-layer metrics instead: spans this script
records around each layer call, plus the engine's phase and tier
accounting summed over the pass's rows.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 3

#: Passes every run measures, however long they take.
MIN_PASSES = 3

#: Duration of :func:`_calibration_kernel` on the reference CPU (about
#: what an unloaded 2.1 GHz Xeon vCPU takes).
CALIBRATION_REFERENCE_S = 0.005

#: Seconds between the calibration kernels timed inside long timed units.
SAMPLE_INTERVAL_S = 0.25

#: Grids as ``(algorithm, node counts, interval lengths T, replicates)``.
#: Cells of different algorithms with equal (n, T, replicate) share one
#: schedule, which is certified once.
WORKLOADS: Dict[str, List[Tuple[str, Tuple[int, ...], Tuple[int, ...], int]]] = {
    # T1's baselines, which dominate its wall time on the per-node fast
    # tier: deterministic KLO (long runs whose growing messages drive
    # payload bit accounting) and randomized token dissemination (compose
    # re-sorting token sets).  KLO's round count is seed-independent and
    # its n=32 cell carries most of the pass, as KLO's larger cells carry
    # most of T1's rounds; token rounds vary with the seed, so its cells
    # are few and large.  T1's KLO n=64 cells (about 8x the n=32 cost)
    # do not fit a run.
    "baseline_count": [
        ("klo_count", (16, 32), (2,), 1),
        ("token_dissemination", (64, 128), (2,), 2),
    ],
    # T1's own algorithms, served by the batch-kernel tier; a change to
    # the baselines' per-node path should leave this workload unchanged.
    "core_count": [
        ("exact_count", (128, 256, 512), (2,), 2),
        ("approx_count", (128, 256), (2,), 2),
    ],
    # Many small cells across interval lengths: executor per-cell
    # overhead, cache writes and reads, and certification weigh most.
    # Three replicates per cell put more work into each pass and average
    # out the seed's effect on token rounds and certified horizons.
    "certified_sweep": [
        (algorithm, (16, 32), (2, 4, 8), 3)
        for algorithm in ("exact_count", "approx_count",
                          "token_dissemination")
    ],
}

EXACT_ORACLE = "perfbench_count_exact"
APPROX_ORACLE = "perfbench_count_approx"

#: Engine phases reported by ``--trace 1`` (the program's phase names).
PHASES = ("compose", "reveal", "deliver", "drain")

Cell = Tuple[Any, int]


def _noise_edges(n: int) -> int:
    """The T1 adversary's noise level, passed explicitly so certification
    rebuilds exactly the schedule that ran."""
    return max(1, n // 8)


# --------------------------------------------------------------------------
# calibration
# --------------------------------------------------------------------------

#: A table larger than a CPU's private caches and a fixed scattered order
#: of reads from it, so the calibration kernel also feels the cache and
#: memory contention that slows the program.  Without them the kernel
#: tracked interpreter speed only and missed slowdowns from contention.
_TABLE = tuple(range(1 << 18))
_ORDER = tuple((i * 40503) % (1 << 18) for i in range(1 << 14))


def _calibration_kernel() -> int:
    """Fixed interpreter work: arithmetic, calls, dict and set updates, a
    sort, and scattered reads of :data:`_TABLE`."""
    def mix(a: int, b: int) -> int:
        return (a ^ b) & 1023

    acc = 0
    for i in range(40_000):
        acc += i * i
    counts: Dict[int, int] = {}
    for r in range(12):
        seen = set()
        for i in range(512):
            k = mix(i, r)
            counts[k] = counts.get(k, 0) + 1
            if k not in seen:
                seen.add(k)
        acc += sorted(counts.items(), key=lambda kv: kv[1])[0][0]
    for i in _ORDER:
        acc += _TABLE[i]
    return acc


def _calibration_s() -> float:
    """Wall time of one calibration kernel, with the collector paused so
    the program's heap cannot change it."""
    gc.disable()
    try:
        t0 = perf_counter()
        _calibration_kernel()
        return perf_counter() - t0
    finally:
        gc.enable()


class CalibratedClock:
    """Calibrated seconds elapsed between ticks, kernel time excluded.

    Each :meth:`tick` times one calibration kernel; the wall time since the
    previous tick is scaled by the reference kernel time over the mean of
    the kernels timed in that interval: the two around it, plus those
    :meth:`sample_every` takes inside it.  The clock is also an executor
    progress callback, so every executed cell is calibrated on its own:
    the speed changes within seconds, so calibrating a whole pass does not
    track it, and cells that run longer than a second are sampled inside.
    """

    def __init__(self) -> None:
        self.seconds = 0.0          # calibrated
        self.wall = 0.0             # uncalibrated, kernels excluded
        self.factor = 1.0           # scale of the latest interval
        self._last: Optional[Tuple[float, float]] = None
        self._samples: List[float] = []   # kernels since the last tick
        self._stolen = 0.0          # wall time those kernels took
        self._ticking = False

    def _sample(self, *_: Any) -> None:
        if self._ticking:
            return
        t0 = perf_counter()
        self._samples.append(_calibration_s())
        self._stolen += perf_counter() - t0

    def sample_every(self, seconds: float) -> None:
        """Also time a kernel every *seconds* (0 stops), from a timer signal."""
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, seconds, seconds)

    def tick(self, *_: Any) -> None:
        self._ticking = True
        now = perf_counter()
        kernel = _calibration_s()
        if self._last is not None:
            then, previous = self._last
            kernels = [previous, *self._samples, kernel]
            self.factor = CALIBRATION_REFERENCE_S * len(kernels) / sum(kernels)
            elapsed = now - then - self._stolen
            self.seconds += elapsed * self.factor
            self.wall += elapsed
        self._samples = []
        self._stolen = 0.0
        self._last = (perf_counter(), kernel)
        self._ticking = False


# --------------------------------------------------------------------------
# program access
# --------------------------------------------------------------------------

def _pin_cpu() -> None:
    """Run on one CPU, the highest-numbered one allowed.

    The scheduler otherwise moves the process between vCPUs of very
    different speed (CPU 0 usually also services most interrupts).  Set-up
    probes inherit the pinning.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _load_program() -> None:
    """Import the checkout's ``repro`` package, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program source under {SRC}")
    # The run must not inherit engine, profiling or event settings.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def _register_oracles() -> None:
    from repro.exec import register_oracle

    @register_oracle(EXACT_ORACLE)
    def _exact(outputs, schedule) -> bool:
        n = schedule.num_nodes
        return len(outputs) == n and all(v == n for v in outputs.values())

    # The (eps, delta) guarantee lets a few percent of runs miss eps, so
    # this is a sanity band: every node decided, all agree, and the
    # estimate is within a factor of three of the truth.
    @register_oracle(APPROX_ORACLE)
    def _approx(outputs, schedule) -> bool:
        n = schedule.num_nodes
        values = set(outputs.values())
        return (len(outputs) == n and len(values) == 1
                and n / 3 <= next(iter(values)) <= 3 * n)


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

def _spec(algorithm: str, n: int, T: int):
    """The T1 cell for *algorithm* at size *n* (stop rules as in T1)."""
    from repro.analysis.complexity import klo_rounds
    from repro.exec import TrialSpec

    common = dict(schedule="lowdiam_handoff",
                  schedule_params={"n": n, "T": T,
                                   "noise_edges": _noise_edges(n)},
                  nodes=algorithm, oracle=EXACT_ORACLE)
    if algorithm == "klo_count":
        spec = TrialSpec(node_params={"n": n},
                         max_rounds=2 * klo_rounds(n) + 200,
                         until="halted", **common)
    elif algorithm == "token_dissemination":
        spec = TrialSpec(node_params={"n": n, "known_count": True},
                         max_rounds=40 * n + 400, until="decided", **common)
    elif algorithm == "exact_count":
        spec = TrialSpec(node_params={"n": n}, max_rounds=20 * n + 2000,
                         until="quiescent", quiescence_window=64, **common)
    elif algorithm == "approx_count":
        common["oracle"] = APPROX_ORACLE
        spec = TrialSpec(node_params={"n": n, "eps": 0.25, "delta": 0.05},
                         max_rounds=20 * n + 2000, until="quiescent",
                         quiescence_window=64, **common)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return spec.with_tags(algorithm=algorithm, n=n, T=T)


def build_cells(workload: str, seed: int) -> List[Cell]:
    """The workload's grid; replicate *k* runs with trial seed ``100*seed+k``."""
    return [(_spec(algorithm, n, T), 100 * seed + k)
            for algorithm, ns, Ts, replicates in WORKLOADS[workload]
            for n in ns for T in Ts for k in range(replicates)]


def warmup_cells(workload: str, seed: int) -> List[Cell]:
    """One small cell per algorithm, so lazy imports and caches fill."""
    return [(_spec(algorithm, min(ns), Ts[0]), 100 * seed + 99)
            for algorithm, ns, Ts, _ in WORKLOADS[workload]]


# --------------------------------------------------------------------------
# one pass
# --------------------------------------------------------------------------

def _durable(row: Dict[str, Any]) -> Dict[str, Any]:
    """*row* without the dotted telemetry columns (``phase.*`` etc.)."""
    return {key: value for key, value in row.items() if "." not in key}


def _certify(cells: Sequence[Cell], rows: Sequence[Dict[str, Any]],
             clock: CalibratedClock) -> Dict[str, Any]:
    """Certify every distinct schedule the cells ran on.

    Returns the calibrated per-layer spans, the number of T-windows
    checked, and the set of schedules whose certificate failed.
    """
    from repro.dynamics import (OverlapHandoffAdversary, dynamic_diameter,
                                verify_t_interval_connectivity)

    horizons: Dict[Tuple[int, int, int], int] = {}
    for (_, seed), row in zip(cells, rows):
        key = (row["n"], row["T"], seed)
        horizons[key] = max(horizons.get(key, 0), int(row.get("rounds", 0)))
    spans = {"csr_s": 0.0, "verify_s": 0.0, "diameter_s": 0.0}
    windows = 0
    bad = set()
    for (n, T, seed), horizon in horizons.items():
        # Schedule generation and CSR builds over the executed rounds, as
        # the engine's reveal phase does them: the part of ``reveal_s``
        # that is not payload bit accounting.
        t0 = perf_counter()
        fresh = OverlapHandoffAdversary(n, T, noise_edges=_noise_edges(n),
                                        seed=seed)
        for r in range(1, horizon + 1):
            fresh.adjacency(r)
        # Schedules generate their edges lazily, so building one is part
        # of verifying it.
        t1 = perf_counter()
        schedule = OverlapHandoffAdversary(n, T, noise_edges=_noise_edges(n),
                                           seed=seed)
        ok, _ = verify_t_interval_connectivity(schedule, T, max(horizon, 1),
                                               raise_on_failure=False)
        t2 = perf_counter()
        d = dynamic_diameter(schedule, start_rounds=(1, 1 + T, 1 + 2 * T))
        t3 = perf_counter()
        clock.tick()
        spans["csr_s"] += (t1 - t0) * clock.factor
        spans["verify_s"] += (t2 - t1) * clock.factor
        spans["diameter_s"] += (t3 - t2) * clock.factor
        windows += max(0, horizon - T + 1)
        if not (ok and 1 <= d <= n - 1):
            bad.add((n, T, seed))
    return {"spans": spans, "windows": windows, "bad": bad}


def run_pass(cells: Sequence[Cell], workdir: str,
             reference: Optional[List[Dict[str, Any]]],
             clock: CalibratedClock) -> Dict[str, Any]:
    """Execute, replay and certify *cells* once; time and check each layer.

    *reference* holds the first pass's durable rows; later passes must
    reproduce them exactly.
    """
    from repro.analysis.complexity import klo_rounds
    from repro.exec import ParallelExecutor

    cache_dir = tempfile.mkdtemp(prefix="pass-", dir=workdir)
    try:
        clock.tick()
        start, start_wall = clock.seconds, clock.wall
        cold = ParallelExecutor(cache=cache_dir, on_error="record",
                                progress=clock.tick).run(cells)
        clock.tick()
        execute_s = clock.seconds - start
        execute_wall = clock.wall - start_wall
        warm = ParallelExecutor(cache=cache_dir, on_error="record",
                                progress=clock.tick).run(cells)
        clock.tick()
        replay_s = clock.seconds - start - execute_s
        cert = _certify(cells, cold.rows, clock)
        sweep_s = clock.seconds - start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    durable = [_durable(row) for row in cold.rows]
    failed = 0
    for idx, ((_, seed), row) in enumerate(zip(cells, cold.rows)):
        ok = ("error" not in row and row.get("correct") is True
              and warm.rows[idx] == durable[idx]
              and (row["n"], row["T"], seed) not in cert["bad"]
              and (reference is None or reference[idx] == durable[idx]))
        if ok and row["algorithm"] == "klo_count":
            ok = row["rounds"] == klo_rounds(row["n"])
        failed += not ok
    if warm.executed or warm.cache_hits != cold.executed:
        failed = max(failed, 1)

    rows = cold.rows
    stats = {"sweep_s": sweep_s, "execute_s": execute_s,
             "replay_s": replay_s, **cert["spans"]}
    # Engine phase times come from inside the cells: scale them by the
    # execution's mean calibration factor.
    for phase in PHASES:
        stats[f"{phase}_s"] = execute_s / execute_wall * sum(
            float(r.get(f"phase.{phase}_s", 0.0)) for r in rows)
    stats.update({
        "rounds": sum(int(r.get("rounds", 0)) for r in rows),
        "node_rounds": sum(int(r.get("rounds", 0)) * r["n"] for r in rows),
        "broadcast_bits": sum(int(r.get("broadcast_bits", 0)) for r in rows),
        "delivered_messages": sum(int(r.get("delivered_messages", 0))
                                  for r in rows),
        "cache_hits": warm.cache_hits,
        "verified_windows": cert["windows"],
    })
    for tier in ("batch", "fast"):
        stats[f"{tier}_rounds"] = sum(int(r.get(f"engine.{tier}_rounds", 0))
                                      for r in rows)
    return {"stats": stats, "failed": failed, "durable": durable}


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------

def set_up(workload: str, seed: int, workdir: str,
           clock: CalibratedClock) -> Tuple[List[Cell], int]:
    """Everything a run does before measuring, after importing the program:
    inputs, then a warm-up pass."""
    _register_oracles()
    cells = build_cells(workload, seed)
    warm = run_pass(warmup_cells(workload, seed), workdir, None, clock)
    return cells, warm["failed"]


def _time_setups(workload: str, seed: int) -> List[float]:
    """Calibrated set-up times, each measured by a fresh interpreter from
    before it imports the program until :func:`set_up` returns."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    return [float(subprocess.run(command, cwd=ROOT, check=True, timeout=150,
                                 stdout=subprocess.PIPE, text=True)
                  .stdout.split()[-1])
            for _ in range(SETUP_PROBES)]


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------

# Units of the reported metrics (end-to-end first, then per-layer).
UNITS = {
    "sweep_s": "s", "node_rounds_per_s": "1/s", "setup_s": "s",
    "execute_s": "s", "compose_s": "s", "reveal_s": "s", "deliver_s": "s",
    "drain_s": "s", "trial_overhead_s": "s", "replay_s": "s", "csr_s": "s",
    "verify_s": "s", "diameter_s": "s",
    "rounds": "count", "batch_rounds": "count", "fast_rounds": "count",
    "batch_round_share": "ratio", "broadcast_bits": "bit",
    "delivered_messages": "count", "cache_hits": "count",
    "verified_windows": "count",
}


def summarize(passes: List[Dict[str, Any]], trace: bool,
              setup_times: List[float]) -> Dict[str, float]:
    """Medians over passes of the metrics ``--trace`` selects."""
    def med(name: str) -> float:
        return statistics.median(p[name] for p in passes)

    if not trace:
        return {
            "sweep_s": med("sweep_s"),
            "node_rounds_per_s": passes[0]["node_rounds"] / med("execute_s"),
            "setup_s": statistics.median(setup_times),
        }
    out = {name: med(name) for name in (
        "execute_s", "compose_s", "reveal_s", "deliver_s", "drain_s",
        "replay_s", "csr_s", "verify_s", "diameter_s")}
    # Execution outside the round loop: schedule and node construction,
    # oracle, executor bookkeeping and cache writes.
    out["trial_overhead_s"] = statistics.median(
        p["execute_s"] - sum(p[f"{ph}_s"] for ph in PHASES) for p in passes)
    for name in ("rounds", "batch_rounds", "fast_rounds", "broadcast_bits",
                 "delivered_messages", "cache_hits", "verified_windows"):
        out[name] = passes[0][name]
    out["batch_round_share"] = out["batch_rounds"] / max(1, out["rounds"])
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    _pin_cpu()
    clock = CalibratedClock()
    clock.tick()
    _load_program()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.setup_probe:
            set_up(args.workload, args.seed, workdir, clock)
            clock.tick()
            print(clock.seconds)
            return 0
        setup_times = [] if args.trace else _time_setups(args.workload,
                                                          args.seed)
        clock.sample_every(SAMPLE_INTERVAL_S)
        if args.trace:
            from repro.simnet.engine import set_profile_default

            set_profile_default(True)
        cells, failed = set_up(args.workload, args.seed, workdir, clock)
        attempted = len(warmup_cells(args.workload, args.seed))
        passes: List[Dict[str, Any]] = []
        reference = None
        started = perf_counter()
        while len(passes) < MIN_PASSES or perf_counter() - started < args.seconds:
            result = run_pass(cells, workdir, reference, clock)
            reference = reference or result["durable"]
            passes.append(result["stats"])
            attempted += len(cells)
            failed += result["failed"]
            print(f"pass {len(passes)}: {result['stats']['sweep_s']:.3f}s",
                  file=sys.stderr)
    finally:
        clock.sample_every(0)
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = summarize(passes, bool(args.trace), setup_times)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
