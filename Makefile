# Convenience targets for the reproduction.

PY ?= python

.PHONY: install test test-fast lint bench-smoke bench-e2e-smoke bench-whole-run experiments results-check sweep-parallel report docs docs-check examples clean

install:
	pip install -e .

test:
	$(PY) -m pytest tests/

test-fast:
	$(PY) -m pytest tests/ -m "not slow" -x -q

# Lint + strict type-check the engine's tier modules: the batch kernels
# and their round (src/repro/simnet/batch.py) and the per-node round
# loops (src/repro/simnet/rounds.py) are held to the strictest bar;
# config in pyproject.toml.  Each tool is skipped with a notice when
# not installed, so the target is usable from the bare runtime
# environment; CI installs both and enforces them.
LINT_MODULES = src/repro/simnet/batch.py src/repro/simnet/rounds.py
lint:
	@if command -v ruff >/dev/null 2>&1; then \
	    ruff check $(LINT_MODULES); \
	else echo "[lint] ruff not installed; skipping (pip install ruff)"; fi
	@if command -v mypy >/dev/null 2>&1; then \
	    mypy --strict $(LINT_MODULES); \
	else echo "[lint] mypy not installed; skipping (pip install mypy)"; fi

bench-smoke:     ## CI gate: fast-path + batch-kernel speedups vs baselines
	$(PY) benchmarks/bench_micro_substrate.py --smoke
	$(PY) benchmarks/bench_kernels.py --smoke

# Short traced passes of the end-to-end benchmark: baseline_count (T1's
# KLO and token baselines), core_count (T1's exact and approximate Count
# on the batch tier) and certified_sweep (many small cells, each
# schedule certified T-interval connected over T in {2, 4, 8}).  Fails
# unless each run's last line, a JSON summary, reports "correct": true.
E2E_SMOKE_WORKLOADS = baseline_count core_count certified_sweep
bench-e2e-smoke: ## CI gate: end-to-end runs are correct and certified
	@for w in $(E2E_SMOKE_WORKLOADS); do \
	    echo "[bench-e2e-smoke] $$w"; \
	    $(PY) perfbench/run.py --workload $$w --seed 1 --seconds 1 \
	        --trace 1 > .bench-e2e-smoke.out || exit 1; \
	    tail -n 1 .bench-e2e-smoke.out | $(PY) -c "import json, sys; \
	        sys.exit(0 if json.load(sys.stdin)['correct'] is True \
	        else 'bench-e2e-smoke: ' + sys.argv[1] + \
	        ' did not report correct: true')" $$w || exit 1; \
	done

# Wall time of whole runs: $(RUNS) runs of `repro-experiments $(RUN)
# --out TMP`; the median, spread, per-experiment seconds and peak RSS are
# merged into results/BENCH_e2e.json.  E.g. `make bench-whole-run RUN=t1`.
RUN ?= --all --quick
RUNS ?= 5
bench-whole-run:
	$(PY) tools/time_runs.py $(RUN) --runs $(RUNS)

experiments:     ## regenerate every table/figure into results/
	$(PY) -m repro.harness.cli --all --out results/

# The committed results/ must be what the code writes: regenerate every
# experiment on two workers into a temporary directory and byte-compare
# it with results/, leaving out the benchmark records (BENCH_*.json,
# bench_*.json), which are timings, not experiment output.
results-check:   ## CI gate: --all --workers 2 reproduces results/ byte for byte
	@out=$$(mktemp -d); \
	$(PY) -m repro.harness.cli --all --workers 2 --out $$out > /dev/null \
	    && diff -r -x 'BENCH_*.json' -x 'bench_*.json' results $$out; \
	status=$$?; rm -rf $$out; \
	if [ $$status -eq 0 ]; then echo "[results-check] results/ matches a fresh --all --workers 2 run"; fi; \
	exit $$status

# Every experiment on $(WORKERS) workers with a warm content-addressed
# cache; rerun after an interrupt to execute only the missing cells.
WORKERS ?= 4
sweep-parallel:
	$(PY) -m repro.harness.cli --all --workers $(WORKERS) \
	    --cache-dir .repro-cache --out results/

report: docs     ## alias of docs

docs:            ## regenerate EXPERIMENTS.md and docs/RESULTS.md from results/
	$(PY) -m repro.report --results results

docs-check:      ## CI gate: fail when committed docs drift from results/
	$(PY) -m repro.report --check --results results
	$(PY) tools/check_links.py

# Every runnable scenario under examples/, so a new one cannot be left out.
examples:
	@for f in examples/*.py; do \
	    echo "[examples] $$f"; \
	    $(PY) $$f || exit 1; \
	done

clean:
	rm -rf build *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
