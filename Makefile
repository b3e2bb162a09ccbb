# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test test-fast bench experiments examples smoke lint analyze clean

install:
	pip install -e . --no-build-isolation

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

test-fast:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -x -q -p no:warnings

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate EXPERIMENTS.md (REPRO_TRIALS=1000 for paper-scale stats).
experiments:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.generate EXPERIMENTS.md

examples:
	@for e in examples/*.py; do echo "== $$e"; PYTHONPATH=src $(PYTHON) $$e || exit 1; done

# Seeded end-to-end smokes: `make NAME-smoke` runs one entry of
# repro.smoke.SMOKES twice in fresh interpreters, diffs the artifacts
# and checks typed expectations; `make smoke` runs them all.
smoke:
	PYTHONPATH=src $(PYTHON) -m repro smoke

%-smoke: ; PYTHONPATH=src $(PYTHON) -m repro smoke $*

# Static analysis gate (CI job: lint).  ruff and mypy are skipped
# gracefully when not installed (offline dev containers); the domain
# lint suite (`repro analyze`) always runs and always blocks.
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; \
	then ruff check src tests; \
	else echo "ruff not installed; skipping (CI runs it)"; fi
	PYTHONPATH=src $(PYTHON) -m repro analyze src tests
	@if $(PYTHON) -c "import mypy" 2>/dev/null; \
	then PYTHONPATH=src $(PYTHON) -m mypy -p repro.routing -p repro.graphs \
	    -p repro.service -p repro.core.routing_table -p repro.obs \
	    -p repro.analysis; \
	else echo "mypy not installed; skipping (CI runs it)"; fi

# Just the domain lint suite.
analyze:
	PYTHONPATH=src $(PYTHON) -m repro analyze src tests

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
