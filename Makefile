# Convenience targets; everything is plain pip + pytest underneath.

.PHONY: install test test-resilience test-chaos test-service serve bench \
	bench-json bench-compare bench-large examples lint lint-fix typecheck \
	import-graph

# Compare the two newest full-suite BENCH_*.json snapshots (override
# with BENCH_OLD=... BENCH_NEW=...); fails on >10% kernel regressions.
# Adjacent snapshots share machine conditions, so the diff isolates the
# latest change instead of cumulative day-to-day container drift.
# Single-family snapshots (e.g. *_structure_build.json) sit between the
# full ones, so each gate picks the newest snapshots that recorded its
# benchmarks: $(call bench_with,NAME,EXCLUDED) is the newest snapshot
# holding benchmark NAME, leaving out the files in EXCLUDED.
bench_with = $(lastword $(filter-out $(2),$(sort $(shell grep -l '$(1)' BENCH_*.json))))
BENCH_NEW ?= $(call bench_with,test_kernel_round_outgoing)
BENCH_OLD ?= $(call bench_with,test_kernel_round_outgoing,$(BENCH_NEW))
# The structure-build family against its own previous snapshot (itself
# while only one has recorded it: the diff is then empty and the
# --require/--speedup pins carry the gate).
SB_NEW ?= $(call bench_with,test_kernel_structure_build)
SB_OLD ?= $(or $(call bench_with,test_kernel_structure_build,$(SB_NEW)),$(SB_NEW))

install:
	pip install -e .

test:
	pytest tests/

# Fault-injection and checkpoint/resume tests only (the resilience layer).
test-resilience:
	pytest tests/runtime tests/parallel/test_faults.py tests/experiments/test_resume.py

# The chaos suite: combined kill+hang+slow faults under deadlines and
# memory budgets, plus the degradation-ladder acceptance tests.
test-chaos:
	pytest tests/runtime/test_guard_chaos.py tests/parallel/test_faults.py -v

# The simulation service: job store, scheduler, result cache, HTTP
# daemon, plus its satellites (journal locking, engine shutdown).
test-service:
	pytest tests/service tests/runtime/test_journal_lock.py \
		tests/parallel/test_engine_shutdown.py -v

# Run the job daemon locally.  SERVE_STORE defaults to ./service-store;
# port 0 picks a free port and writes it to $(SERVE_STORE)/endpoint.json.
SERVE_STORE ?= service-store
SERVE_PORT ?= 0
serve:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m repro.cli serve --store $(SERVE_STORE) --port $(SERVE_PORT)

bench:
	pytest benchmarks/ --benchmark-only

# Seed/extend the perf trajectory: kernel benches only, machine-readable,
# dated so successive runs line up chronologically at the repo root.
bench-json:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		pytest $(wildcard benchmarks/bench_kernel_*.py) --benchmark-only \
		--benchmark-json=BENCH_$(shell date +%Y%m%d).json

# --require guards the gate's coverage: the newest snapshot must still
# contain the core kernels, the per-policy kernels (default-policy
# variants included), the per-backend kernels and the attack kernels
# (and SB_NEW the structure build) or the comparison fails outright.  --stat min because microsecond benches on shared
# machines have mean runtimes dominated by scheduler outliers; --only
# kernel because the gate is a *kernel* regression gate (artifact
# benches run once and can't clear a 10% bar on shared hardware).
# --speedup pins three headlines in the same snapshot: batched trees on
# the cext backend at least 3x faster than numpy, the batched
# multi-origin attack kernel at least 3x faster than the per-pair
# scalar reference (it measures ~50-100x; 3x is the do-not-regress bar),
# and (in SB_NEW) the all-destination structure build on cext at least
# 5x faster than numpy on one thread.
bench-compare:
	python scripts/bench_compare.py $(BENCH_OLD) $(BENCH_NEW) \
		--require kernel --require kernel_policy \
		--require kernel_backend --require kernel_attack \
		--stat min --only kernel \
		--speedup "kernel_backend_trees[cext]:kernel_backend_trees[numpy]:3.0" \
		--speedup "kernel_attack_batched[origin_hijack-numpy]:kernel_attack_scalar:3.0"
	python scripts/bench_compare.py $(SB_OLD) $(SB_NEW) \
		--require kernel_structure_build \
		--stat min --only kernel_structure_build \
		--speedup "kernel_structure_build[cext-1]:kernel_structure_build[numpy-1]:5.0"

bench-large:
	REPRO_BENCH_N=2000 pytest benchmarks/ --benchmark-only

# Static analysis: the project-invariant linter always runs (stdlib
# only) — per-file rules plus the whole-program pass (import layering,
# fork/thread safety, dead public API) — followed by the API-surface
# ratchet; ruff piggybacks when installed, reading its config from
# pyproject.toml so local runs and CI check exactly the same thing.
lint:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.analysis --program src scripts benchmarks
	python scripts/api_surface.py
	@if command -v ruff >/dev/null 2>&1; then ruff check src scripts tests benchmarks examples; \
	else echo "ruff not installed (pip install -e '.[dev]'); skipped"; fi

# Regenerate the committed package import graph (docs/import_graph.dot).
# Renders to SVG too when graphviz is installed; CI uploads both.
import-graph:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.analysis \
		--graph-out docs/import_graph.dot src scripts benchmarks
	@if command -v dot >/dev/null 2>&1; then dot -Tsvg docs/import_graph.dot -o docs/import_graph.svg; \
	else echo "graphviz not installed; wrote docs/import_graph.dot only"; fi

lint-fix:
	@if command -v ruff >/dev/null 2>&1; then ruff check --fix src scripts tests benchmarks examples; \
	else echo "ruff not installed (pip install -e '.[dev]'); nothing to fix with"; fi

# mypy strict modules + per-bucket error-count ratchet; loud no-op
# skip when mypy is absent locally (CI passes --require).
typecheck:
	python scripts/typecheck_ratchet.py

examples:
	python examples/quickstart.py 400
	python examples/early_adopter_comparison.py 300
	python examples/secure_routing_attacks.py
	python examples/buyers_remorse_and_oscillation.py
	python examples/custom_topology.py
	python examples/partial_deployment_security.py 250
	python examples/model_sensitivity.py 250
