# Development targets.  Everything runs from the repo root and needs only
# the baked-in toolchain (numpy/pytest; ruff if installed); every
# tool is a verb of the one command line, `python -m repro <verb>`.
#
# Sweep targets fan out across fleet worker processes (JOBS, default:
# PARADE_JOBS env or cpu count) and the gates memoise runs in the
# content-addressed cache under .parade-cache/ — see docs/FLEET.md.

PYTHONPATH := src
export PYTHONPATH

# fleet worker count for the sweep/gate targets; empty = auto (cpu count)
JOBS ?=
JOBS_FLAG := $(if $(JOBS),--jobs $(JOBS),)

.PHONY: test test-slow examples lint bench-smoke bench-gate bench-record profile-smoke chaos-smoke metrics-smoke hostbench-smoke hostbench bench micro

test:            ## tier-1 suite (the ROADMAP verify command; budget 90 s, ten slowest tests in every log)
	python -m pytest -x -q --durations=10

test-slow:       ## include NPB class-S reference validations
	python -m pytest -x -q -m "slow or not slow"

examples:        ## run every examples/*.py script, each under a 300 s timeout; fails on the first non-zero exit
	@for f in examples/*.py; do echo "== $$f"; timeout 300 python $$f || exit 1; done

lint:            ## ruff (config in pyproject.toml); no-op if not installed
	@command -v ruff >/dev/null 2>&1 && ruff check src tests benchmarks \
		|| echo "ruff not installed; skipping lint"

bench-smoke:     ## virtual-time record on the tiny baskets + 16-node flat-vs-tree identity; writes only a temp file
	python -m repro perf --record --smoke --out $${TMPDIR:-/tmp}/BENCH_smoke.json $(JOBS_FLAG)

bench-gate:      ## accel basket + 16-node hier scale point vs BENCH_parade.json; fails when > 5% off, says what moved
	python -m repro perf --gate $(JOBS_FLAG)

bench-record:    ## re-record BENCH_parade.json (the one target that writes a tracked file); commit the diff
	python -m repro perf --record $(JOBS_FLAG)

profile-smoke:   ## virtual-time profiler invariant check on one workload
	python -m repro profile helmholtz --check

chaos-smoke:     ## fault-injection sweep: bit-identical recovery on a small matrix
	python -m repro chaos helmholtz --nodes 2 --plan drop,dup $(JOBS_FLAG)
	python -m repro chaos cg --mode sdsm --plan lossy-mix $(JOBS_FLAG)

metrics-smoke:   ## metered run checked against an unmetered one (exit 2 if they differ)
	python -m repro metrics helmholtz --nodes 2 --json $${TMPDIR:-/tmp}/metrics-smoke.json

hostbench-smoke: ## host-time benchmark, quick report + its self-test (see BENCHMARK.json)
	python benchmarks/hostbench/run.py --quick
	python benchmarks/hostbench/test_hostbench.py

hostbench:       ## host-time benchmark, full report: 7 workloads + per-layer ledger (~2.5 min)
	python benchmarks/hostbench/run.py

bench:           ## regenerate every paper figure
	python -m pytest benchmarks/ --benchmark-only

micro:           ## micro-benchmarks of the hot-path kernels
	python benchmarks/bench_microkernels.py

help:
	@grep -E '^[a-z-]+: ' Makefile | sed 's/:.*##/\t/'
