# Convenience targets; everything also runs as plain commands.

PYTHON ?= python

.PHONY: test loc golden-kernel golden-dse bench bench-smoke figures report-smoke faults-smoke checkpoint-smoke batch-smoke top-smoke serve-smoke chaos-smoke bench-diff serve

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# The size number every CHANGES.md entry reports (ROADMAP: net negative
# line counts are a success metric): total lines of src/**/*.py.
loc:
	@find src -name '*.py' -print0 | xargs -0 cat | wc -l

# Regenerate tests/data/golden_compiled_kernel.py.txt after an intended
# change to the text repro.sim.compiled emits (tests/test_codegen_golden.py
# fails until the snapshot matches).
golden-kernel:
	PYTHONPATH=src:. $(PYTHON) -c "\
	from tests.test_codegen_golden import GOLDEN_KERNEL, _golden_kernel_noc; \
	from repro.sim.compiled import compiled_source; \
	open(GOLDEN_KERNEL, 'w').write(compiled_source(_golden_kernel_noc().sim))"

# Regenerate tests/data/golden_dse_identity.json after an intended change
# to what a design point evaluates to (tests/test_rows.py diffs against
# it; such a change also needs a CACHE_VERSION bump -- stored results
# under unchanged keys would otherwise go stale).
golden-dse:
	PYTHONPATH=src:. $(PYTHON) -c "\
	import json; from tests.test_rows import GOLDEN_DSE, identity; \
	json.dump(identity(), open(GOLDEN_DSE, 'w'), indent=2); print(file=open(GOLDEN_DSE, 'a'))"

# Full figure regeneration (pytest-benchmark over benchmarks/).
figures:
	PYTHONPATH=src $(PYTHON) -m repro figures

bench: figures

# One tiny point of every bench family through the experiment runner,
# under a wall-clock budget (see benchmarks/smoke.py), then every
# ledger workload once at --quick size with its per-run correctness
# gate -- the CI pulse-check for the measurement stack.  Writes no
# tracked file.
bench-smoke: report-smoke faults-smoke checkpoint-smoke batch-smoke top-smoke serve-smoke chaos-smoke
	PYTHONPATH=src $(PYTHON) benchmarks/smoke.py
	python3 benchmarks/ledger/selfcheck.py

# Telemetry pulse-check: run the report CLI on a tiny 2x2 mesh and
# re-validate every artifact (metrics schema, trace-event JSON with
# complete packet lifecycles, heatmap CSV).  See docs/OBSERVABILITY.md.
report-smoke:
	PYTHONPATH=src $(PYTHON) -m repro report \
		--out .report-smoke --mesh 2x2 --cycles 600 --check

# Resilience pulse-check: a tiny deterministic fault campaign that must
# recover, plus a dead link with no recovery armed that the progress
# watchdog must catch instead of hanging.  See docs/RESILIENCE.md.
faults-smoke:
	PYTHONPATH=src $(PYTHON) -m repro faults --smoke

# Crash-safety pulse-check: checkpoint a fault sweep, SIGKILL it
# mid-campaign, resume, and require the results to match an
# uninterrupted run with no completed point recomputed.  See
# docs/CHECKPOINT.md.
checkpoint-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/checkpoint_smoke.py

# Batched Monte-Carlo pulse-check: a replicated campaign SIGKILLed at
# its first batch checkpoint and resumed to the exact per-lane metrics
# of an uninterrupted run, with its streamed events.jsonl validated and
# replayed.  See docs/BATCHING.md.
batch-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/batch_smoke.py

# Fleet-telemetry pulse-check: a tiny cached sweep through the
# experiment runner, then the `repro top` dashboard and its Prometheus
# exposition must agree with what the runner reported.  See
# docs/OBSERVABILITY.md.
top-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/top_smoke.py

# DSE-service pulse-check: seed a store through the pool, boot `python
# -m repro serve` on a free port, require /healthz to count the seeded
# records and a background job to stream its events to completion.
# (Hit / miss / metrics behaviour of the same subprocess is gated by
# the ledger's query_hit / query_miss workloads, which bench-smoke runs
# through selfcheck.py.)  See docs/SERVICE.md.
serve-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/serve_smoke.py

# Supervision pulse-check: the seeded chaos harness -- a clean
# work-stealing sweep vs one with injected worker SIGKILLs, SIGSTOP
# stalls, store corruption and event-log truncation; the result digest
# must match, the journal must show every point exactly once, and no
# worker process may survive.  Plus a poison-pill quarantine drill.
# A plan that did not land (no kill, stall, corruption or truncation
# delivered) is itself a violation.  See docs/RESILIENCE.md.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m repro chaos --seed 1307

# The DSE query service itself (docs/SERVICE.md).
serve:
	PYTHONPATH=src $(PYTHON) -m repro serve --store .repro-store

# The perf gate: run the ledger (every workload x 3 repeats, ~5 min,
# writes benchmarks/ledger/out/ledger.json), then diff its medians
# against the committed benchmarks/ledger/baseline.json under the
# per-metric bounds of BENCHMARK.json (exit 1 on a regression).
bench-diff:
	python3 benchmarks/ledger/run.py
	PYTHONPATH=src $(PYTHON) -m repro bench-diff
