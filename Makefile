# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test bench bench-json bench-check experiments examples chaos-smoke serve-smoke shard-smoke obs-smoke reliability-smoke workflow-smoke lint analyze concurrency concurrency-smoke prove-smoke clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -x -q -p no:warnings

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Machine-readable perf subset -> BENCH_<date>.json (commit the file
# to arm the CI perf gate; see docs/performance.md).
bench-json:
	$(PYTHON) benchmarks/bench_to_json.py

# Compare a fresh run against the latest committed BENCH_*.json;
# fails on a >25% wall-clock regression on the same host.
bench-check:
	$(PYTHON) benchmarks/bench_to_json.py --check

# Regenerate EXPERIMENTS.md (REPRO_TRIALS=1000 for paper-scale stats).
experiments:
	$(PYTHON) -m repro.experiments.generate EXPERIMENTS.md

examples:
	@for e in examples/*.py; do echo "== $$e"; $(PYTHON) $$e || exit 1; done

# Seeded chaos smoke: the acceptance scenario (8x8 mesh, 3 mid-flight
# fault events) must be deterministic, fully accounted, and complete
# >=3 reconfiguration epochs.  Run twice and diff to prove determinism.
chaos-smoke:
	$(PYTHON) -m repro chaos --mesh 8x8 --faults 2 --messages 120 \
	    --events 3 --seed 0 > /tmp/chaos-smoke-1.txt
	$(PYTHON) -m repro chaos --mesh 8x8 --faults 2 --messages 120 \
	    --events 3 --seed 0 > /tmp/chaos-smoke-2.txt
	diff /tmp/chaos-smoke-1.txt /tmp/chaos-smoke-2.txt
	grep -q "epoch 2 " /tmp/chaos-smoke-1.txt
	@echo "chaos smoke OK: deterministic and >=3 epochs"

# Control-plane smoke: the end-to-end acceptance scenario (16x16 mesh,
# 5 seeded faults, 1000 queries over real TCP; cache hit verified via
# the stats RPC, mid-run fault delta -> epoch bump, stale-epoch
# rejection, graceful drain).  Every line is deterministic for a fixed
# seed, so run twice and diff to prove it.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro serve --smoke > /tmp/serve-smoke-1.txt
	PYTHONPATH=src $(PYTHON) -m repro serve --smoke > /tmp/serve-smoke-2.txt
	diff /tmp/serve-smoke-1.txt /tmp/serve-smoke-2.txt
	grep -q "cache_hit True" /tmp/serve-smoke-1.txt
	grep -q "stale query: typed stale-epoch" /tmp/serve-smoke-1.txt
	grep -q "drain: orphaned compiles 0" /tmp/serve-smoke-1.txt
	grep -q "^smoke OK" /tmp/serve-smoke-1.txt
	@echo "serve smoke OK: deterministic, cached, epoch-safe, drained"

# Sharded-plane smoke (CI job: test, blocking): 1 router + 3 replica
# workers over a shared store.  Two mixed query/delta loadgen
# campaigns (binary codec); one worker is SIGKILLed mid-campaign and
# every reply must still arrive (reads retry on survivors), then the
# respawn replays the mutation log and rejoins.  Every line is
# seed-deterministic, so run twice and diff the transcripts.
shard-smoke:
	PYTHONPATH=src $(PYTHON) -m repro serve --shard-smoke \
	    > /tmp/shard-smoke-1.txt
	PYTHONPATH=src $(PYTHON) -m repro serve --shard-smoke \
	    > /tmp/shard-smoke-2.txt
	diff /tmp/shard-smoke-1.txt /tmp/shard-smoke-2.txt
	grep -q '"ok": 300' /tmp/shard-smoke-1.txt
	grep -q "recovery: respawns 1 in_sync 3/3" /tmp/shard-smoke-1.txt
	grep -q "epoch_divergences 0" /tmp/shard-smoke-1.txt
	grep -q "^smoke OK" /tmp/shard-smoke-1.txt
	@echo "shard smoke OK: deterministic, no lost replies, worker respawned"

# Telemetry smoke: run the seeded observability scenario (repro
# stats: lamb pipeline + simulator with a mid-run fault + control
# plane + trial engine, one registry) twice with timings redacted.
# Everything except wall-clock durations is a pure function of the
# seed, so all three export formats must be byte-identical; then
# grep one key series from each instrumented layer.
obs-smoke:
	PYTHONPATH=src $(PYTHON) -m repro stats --redact-timings \
	    --format prom --telemetry /tmp/obs-smoke-1 > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro stats --redact-timings \
	    --format prom --telemetry /tmp/obs-smoke-2 > /dev/null
	diff /tmp/obs-smoke-1.prom /tmp/obs-smoke-2.prom
	diff /tmp/obs-smoke-1.ndjson /tmp/obs-smoke-2.ndjson
	diff /tmp/obs-smoke-1.json /tmp/obs-smoke-2.json
	grep -q 'span="lamb.wvc"' /tmp/obs-smoke-1.prom
	grep -q 'sim_aborts_total{engine="frontier",reason="endpoint-failed"} 1' \
	    /tmp/obs-smoke-1.prom
	grep -q 'service_compiles_total 2' /tmp/obs-smoke-1.prom
	grep -q 'trial_chunks_total 1' /tmp/obs-smoke-1.prom
	grep -q 'telemetry_events_dropped 0' /tmp/obs-smoke-1.prom
	@echo "obs smoke OK: deterministic exports, every layer present"

# Reliability smoke: a seeded two-epoch-scale Poisson campaign on
# M2(8), run once on the thread executor and once on the process
# executor.  The JSON report is a pure function of the campaign
# config, so the two files must be byte-identical — that diff is the
# determinism proof across executor backends — and the report must
# show every trial accounted for.
reliability-smoke:
	PYTHONPATH=src $(PYTHON) -m repro reliability --mesh 8x8 \
	    --rate 1.5 --mttr 0.3 --horizon 2 --trials 4 --seed 0 \
	    --jobs 2 --executor thread --json /tmp/reliability-smoke-1.json \
	    | grep -v "^wrote " > /tmp/reliability-smoke-1.txt
	PYTHONPATH=src $(PYTHON) -m repro reliability --mesh 8x8 \
	    --rate 1.5 --mttr 0.3 --horizon 2 --trials 4 --seed 0 \
	    --jobs 2 --executor process --json /tmp/reliability-smoke-2.json \
	    | grep -v "^wrote " > /tmp/reliability-smoke-2.txt
	diff /tmp/reliability-smoke-1.json /tmp/reliability-smoke-2.json
	diff /tmp/reliability-smoke-1.txt /tmp/reliability-smoke-2.txt
	grep -q '"all_accounted": true' /tmp/reliability-smoke-1.json
	grep -q "all_accounted=True" /tmp/reliability-smoke-1.txt
	@echo "reliability smoke OK: thread/process byte-identical, all trials accounted"

# Workflow smoke (CI job: test, blocking): the ISSUE acceptance gate.
# 1. chaos-campaign twice against one checkpoint store — the second
#    run must be 100%% cache hits (zero recomputation) and the two
#    report artifacts byte-identical.
# 2. kill-and-resume: the same preset in a fresh store, SIGKILLed at
#    the chaos-burst step boundary (REPRO_WORKFLOW_KILL_AFTER), then
#    resumed — the resumed report must be byte-identical to the
#    straight-through one with all pre-kill steps served from cache.
workflow-smoke:
	rm -rf /tmp/wf-smoke-store /tmp/wf-smoke-kill
	PYTHONPATH=src $(PYTHON) -m repro workflow run chaos-campaign \
	    --store /tmp/wf-smoke-store --json \
	    --out /tmp/wf-smoke-run1.json > /tmp/wf-smoke-outcome1.json
	PYTHONPATH=src $(PYTHON) -m repro workflow run chaos-campaign \
	    --store /tmp/wf-smoke-store --json \
	    --out /tmp/wf-smoke-run2.json > /tmp/wf-smoke-outcome2.json
	diff /tmp/wf-smoke-run1.json /tmp/wf-smoke-run2.json
	grep -q '"executed_steps": 0' /tmp/wf-smoke-outcome2.json
	grep -q '"cached_steps": 5' /tmp/wf-smoke-outcome2.json
	REPRO_WORKFLOW_KILL_AFTER=chaos-burst PYTHONPATH=src \
	    $(PYTHON) -m repro workflow run chaos-campaign \
	    --store /tmp/wf-smoke-kill > /dev/null 2>&1; \
	    test $$? -eq 137
	PYTHONPATH=src $(PYTHON) -m repro workflow resume chaos-campaign \
	    --store /tmp/wf-smoke-kill --json \
	    --out /tmp/wf-smoke-resumed.json > /tmp/wf-smoke-outcome3.json
	grep -q '"cached_steps": 2' /tmp/wf-smoke-outcome3.json
	diff /tmp/wf-smoke-resumed.json /tmp/wf-smoke-run1.json
	@echo "workflow smoke OK: cached rerun + kill-and-resume byte-identical"

# Static analysis gate (CI job: lint).  ruff and mypy are skipped
# gracefully when not installed (offline dev containers); the domain
# lint suite (`repro analyze`) always runs and always blocks.
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; \
	then ruff check src tests; \
	else echo "ruff not installed; skipping (CI runs it)"; fi
	PYTHONPATH=src $(PYTHON) -m repro analyze src
	PYTHONPATH=src $(PYTHON) -m repro analyze --concurrency src \
	    --baseline concurrency_baseline.json
	@if $(PYTHON) -c "import mypy" 2>/dev/null; \
	then PYTHONPATH=src $(PYTHON) -m mypy -p repro.routing -p repro.graphs \
	    -p repro.service -p repro.core.routing_table -p repro.obs \
	    -p repro.reliability -p repro.analysis; \
	else echo "mypy not installed; skipping (CI runs it)"; fi

# Just the domain lint suite.
analyze:
	PYTHONPATH=src $(PYTHON) -m repro analyze src

# The interprocedural concurrency pass (REP201-REP205) over the tree,
# gated by the committed suppression baseline: new findings AND stale
# baseline entries both fail, so the baseline can neither silently
# grow nor rot.
concurrency:
	PYTHONPATH=src $(PYTHON) -m repro analyze --concurrency src \
	    --baseline concurrency_baseline.json

# Concurrency smoke (CI job: lint, blocking): run the pass twice with
# JSON artifacts and diff them — the report must be a pure function of
# the sources — then apply the baseline gate.
concurrency-smoke:
	PYTHONPATH=src $(PYTHON) -m repro analyze --concurrency src \
	    --baseline concurrency_baseline.json --format json \
	    --out /tmp/concurrency-smoke-1.json > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro analyze --concurrency src \
	    --baseline concurrency_baseline.json --format json \
	    --out /tmp/concurrency-smoke-2.json > /dev/null
	diff /tmp/concurrency-smoke-1.json /tmp/concurrency-smoke-2.json
	grep -q '"schema": 1' /tmp/concurrency-smoke-1.json
	grep -q '"cycles": \[\]' /tmp/concurrency-smoke-1.json
	@echo "concurrency smoke OK: deterministic report, baseline gate clean"

# CDG prover smoke: the paper's discipline must verify, the broken
# single-VC discipline must be refuted with a counterexample cycle.
prove-smoke:
	PYTHONPATH=src $(PYTHON) -m repro prove --mesh 16x16 --faults 8 --seed 1
	! PYTHONPATH=src $(PYTHON) -m repro prove --mesh 4x4 --single-vc
	@echo "prove smoke OK: good discipline accepted, broken refuted"

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
