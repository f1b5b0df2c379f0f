PYTHON ?= python
export PYTHONPATH := src
# Per-test watchdog (seconds) — enforced by pytest-timeout when installed,
# by the SIGALRM fallback in tests/conftest.py otherwise.  The fault-injection
# tests hang/kill workers on purpose; this keeps a supervision bug from
# wedging the suite.
export REPRO_TEST_TIMEOUT ?= 600

.PHONY: check fast test bench bench-dispatch bench-kernel bench-serving bench-ingest bench-sweep chaos lint analyze typecheck

## tier-1 gate: lint, analyze, typecheck, then the full test suite (what CI runs)
check: lint analyze typecheck
	$(PYTHON) -m pytest -x -q

## project-specific correctness lint (syntactic rules REP001–REP009), then
## ruff when installed.  The repro.devtools.lint pass always runs (stdlib-only);
## ruff is optional — absent ruff prints a skip notice, an installed-but-failing
## ruff fails the target.  The interprocedural REP10x analyzers live in the
## separate `analyze` target.
lint:
	$(PYTHON) -m repro.devtools.lint --ignore REP101,REP102,REP103,REP104 src
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed — skipping (pip install -e '.[dev]')"; \
	fi

## interprocedural concurrency analysis (stdlib-only, DESIGN.md §15):
## REP101 guarded-by discipline, REP102 lock-order cycles, REP103 blocking
## calls under a lock, REP104 fork-unsafe captures
analyze:
	$(PYTHON) -m repro.devtools.lint --select REP101,REP102,REP103,REP104 src

## mypy strict profile (embedding/, parallel/, cascades/, serving/, ingest/); skipped when absent
typecheck:
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed — skipping (pip install -e '.[dev]')"; \
	fi

## quick dev loop: skip slow (multiprocess-pool / fault-injection / benchmark) tests
fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

test: check

## regenerate every figure bench (CI scale; REPRO_BENCH_SCALE=paper for full)
bench:
	$(PYTHON) -m pytest -x -q benchmarks

## chaos suite: crash-kill / torn-write / slow-disk / task-death injection
## against the journal, recovery, the supervised server, and the sharded
## tier (SIGKILL a shard mid-burst → watchdog restart + journal replay to
## bit-identical state), plus the replay legs (slow consumer, scoring
## server restart mid-replay, SIGKILL a shard mid-replay), plus the record
## codec's unit tests and byte-level fuzz — run with the runtime sanitizer
## armed so dispatch-side invariants are checked too
chaos:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest -x -q \
		tests/unit/serving/test_durability.py \
		tests/unit/serving/test_frames.py \
		tests/unit/serving/test_server.py \
		tests/unit/serving/test_sharding.py \
		tests/unit/serving/test_tcp_client.py \
		tests/unit/ingest/test_replay_chaos.py \
		tests/unit/devtools/test_lock_sanitizer.py \
		tests/property/test_prop_durability.py \
		tests/property/test_prop_frames.py

## arena dispatch-overhead benchmark (absolute payload/overhead gates);
## writes BENCH_parallel.json
bench-dispatch:
	$(PYTHON) -m pytest -x -q benchmarks/test_perf_dispatch.py

## gradient-kernel benchmark (scatter plan vs np.add.at, allocation audit);
## writes BENCH_kernel.json
bench-kernel:
	$(PYTHON) -m pytest -x -q benchmarks/test_perf_kernel.py

## scoring-service benchmark (micro-batched vs one-at-a-time scoring,
## burst vs scalar ingest, flush allocation audit, latency percentiles,
## sharded scale-out + zero-copy publish gates); writes BENCH_serving.json
bench-serving:
	$(PYTHON) -m pytest -x -q benchmarks/test_perf_serving.py

## recorded-stream replay benchmark (flat-out throughput, replay/direct
## bit-identity, paced 10x+ replay vs the sharded tier with SLO gates);
## writes BENCH_ingest.json
bench-ingest:
	$(PYTHON) -m pytest -x -q benchmarks/test_perf_ingest.py

## threshold-sweep benchmark (lockstep Pegasos vs a loop of single fits over
## the same folds; identical F1 arrays, >= 4x gate); writes BENCH_sweep.json
bench-sweep:
	$(PYTHON) -m pytest -x -q benchmarks/test_perf_sweep.py
