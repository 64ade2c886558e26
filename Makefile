PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint typecheck smoke obs-smoke serve-smoke check bench-engine coverage-check cov-mitigations ci clean-cache

# Tier-1 suite (the correctness gate).
test:
	$(PYTHON) -m pytest -x -q

# Static invariant linter: determinism / rng / env-knob / async /
# telemetry contracts (see docs/static-analysis.md). Zero findings
# outside lint-baseline.json is the gate.
lint:
	$(PYTHON) -m repro.lint

# Optional static type/flake pass; skips cleanly when neither mypy nor
# pyflakes is installed (optional tooling, not a dep — same pattern as
# coverage-check).
typecheck:
	@if $(PYTHON) -c "import importlib.util,sys; sys.exit(importlib.util.find_spec('mypy') is None)"; then \
		$(PYTHON) -m mypy --ignore-missing-imports src/repro; \
	elif $(PYTHON) -c "import importlib.util,sys; sys.exit(importlib.util.find_spec('pyflakes') is None)"; then \
		$(PYTHON) -m pyflakes src/repro; \
	else \
		echo "mypy/pyflakes not installed; skipping typecheck"; \
	fi

# Tiny parallel sweep: serial vs parallel equivalence + warm-cache rerun.
smoke:
	$(PYTHON) -m repro.exec.smoke

# Observability layer: tracing demo + stats-snapshot determinism check.
obs-smoke:
	$(PYTHON) examples/tracing_demo.py
	$(PYTHON) -m repro.obs.selfcheck

# Simulation service: boots the daemon, drives three concurrent
# clients (dedup + bit-identical vs serial), then SIGTERM + restart
# resuming the journaled queue (see docs/serving.md).
serve-smoke:
	$(PYTHON) -m repro.serve.smoke

# Independent verification: conformance oracle on traced campaign
# points, seeded mutation detection, differential design invariants,
# and a bounded fuzz smoke (see docs/verification.md).
check:
	$(PYTHON) -m repro.check.selfcheck --fuzz-cases 12

# Engine A/B smoke: the fast engine must be no slower than the
# reference and bit-identical on short runs, and must stay within
# BENCH_THRESHOLD of the committed baseline timings. Sub-second smoke
# runs on shared machines jitter ~±20%, so the default gate is wide;
# it still catches losing the fast path (a 2-3x slowdown). Drop
# --smoke for the full Table 4 mix A/B (docs/performance.md quotes
# those numbers).
BENCH_THRESHOLD ?= 0.5
bench-engine:
	$(PYTHON) benchmarks/bench_engine.py --smoke \
		--output benchmarks/results/BENCH_engine_current.json
	$(PYTHON) benchmarks/compare.py \
		benchmarks/results/BENCH_engine_smoke.json \
		benchmarks/results/BENCH_engine_current.json \
		--threshold $(BENCH_THRESHOLD)

# Coverage for the verification layer itself; skips cleanly when
# pytest-cov is not installed (it is optional tooling, not a dep).
coverage-check:
	@if $(PYTHON) -c "import importlib.util,sys; sys.exit(importlib.util.find_spec('pytest_cov') is None)"; then \
		$(PYTHON) -m pytest -q --cov=src/repro/check --cov-report=term tests/check; \
	else \
		echo "pytest-cov not installed; running tests/check without coverage"; \
		$(PYTHON) -m pytest -q tests/check; \
	fi

# Coverage gate for the mitigation family and its verification
# harnesses (registry, differential, fuzzer, corpus, contract suite).
# Like coverage-check it runs the tests uninstrumented when pytest-cov
# is not installed (optional tooling, not a dependency).
cov-mitigations:
	@if $(PYTHON) -c "import importlib.util,sys; sys.exit(importlib.util.find_spec('pytest_cov') is None)"; then \
		$(PYTHON) -m pytest -q --cov=src/repro/mitigations --cov=src/repro/check \
			--cov-report=term --cov-fail-under=90 tests/mitigations tests/check; \
	else \
		echo "pytest-cov not installed; running tests/mitigations tests/check without coverage"; \
		$(PYTHON) -m pytest -q tests/mitigations tests/check; \
	fi

# What CI runs.
ci: lint typecheck test smoke obs-smoke serve-smoke check bench-engine cov-mitigations

clean-cache:
	rm -rf benchmarks/results/.cache .repro-cache
