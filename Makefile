# Convenience targets; everything also runs as plain commands.

PYTHON ?= python

.PHONY: test loc golden-kernel golden-dse bench bench-smoke figures report-smoke faults-smoke bench-diff serve

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

# Full figure regeneration: main(runner) of every benchmarks/bench_*.py,
# in-process (tests/test_figures.py checks the deterministic ones).
figures:
	PYTHONPATH=src $(PYTHON) -m repro figures

bench: figures

# The pulse-checks below, then every ledger workload once at --quick
# size with its per-run correctness gate -- the CI pulse-check for the
# measurement stack.  Writes no tracked file.  (The figures' code paths
# are tier-1: tests/test_figures.py; so are the `repro top` flow,
# tests/test_events.py, and worker supervision under faults,
# tests/property/test_pool_lifetime_props.py.)
bench-smoke: report-smoke faults-smoke
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
