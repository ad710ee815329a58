"""Documentation stays executable and truthful.

The README quickstart and the package docstring example are executed;
file references in the docs must exist.  Documentation that silently
rots is worse than none.
"""

import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def extract_python_blocks(path):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadme:
    def test_quickstart_block_runs(self):
        blocks = extract_python_blocks(os.path.join(ROOT, "README.md"))
        assert blocks, "README must contain a python quickstart"
        # The first python block is the quickstart; it must execute.
        exec(compile(blocks[0], "README-quickstart", "exec"), {})

    def test_examples_table_points_at_real_files(self):
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
            text = f.read()
        for match in re.findall(r"`(examples/[\w./]+\.py)`", text):
            assert os.path.exists(os.path.join(ROOT, match)), match


class TestPackageDocstring:
    def test_init_example_runs(self):
        import repro

        doc = repro.__doc__
        # Extract the indented code block after "Quick start::".
        lines = doc.split("Quick start::", 1)[1].splitlines()
        code = "\n".join(
            l[4:] for l in lines if l.startswith("    ") or not l.strip()
        )
        exec(compile(code, "repro-docstring", "exec"), {})


class TestDesignDoc:
    def test_every_bench_in_the_index_exists(self):
        with open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8") as f:
            text = f.read()
        benches = set(re.findall(r"`(?:benchmarks/)?(bench_\w+\.py)`", text))
        assert benches
        for b in benches:
            assert os.path.exists(os.path.join(ROOT, "benchmarks", b)), b

    def test_every_bench_file_is_indexed(self):
        with open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8") as f:
            design = f.read()
        on_disk = {
            f for f in os.listdir(os.path.join(ROOT, "benchmarks"))
            if f.startswith("bench_") and f.endswith(".py")
        }
        for b in on_disk:
            assert b in design, f"{b} missing from DESIGN.md's experiment index"


class TestPerformanceDoc:
    PATH = os.path.join(ROOT, "docs", "PERFORMANCE.md")

    def test_exists_and_is_cross_linked(self):
        assert os.path.exists(self.PATH)
        for doc in ("README.md", "DESIGN.md", os.path.join("docs", "ARCHITECTURE.md")):
            with open(os.path.join(ROOT, doc), encoding="utf-8") as f:
                assert "PERFORMANCE.md" in f.read(), f"{doc} must link the guide"

    def test_covers_the_contract(self):
        with open(self.PATH, encoding="utf-8") as f:
            text = f.read()
        for term in (
            "wake_inputs", "is_quiescent", "request_wakeup",
            "verify_fast_path", 'kernel="interpreted"', "_step_full",
            "cache_token", "CACHE_VERSION", "--jobs", "--cache",
            # one pool, one store: what jobs=N and cache_dir= mean
            "long-lived", "repro.flow.pool", "ResultStore",
            "events.jsonl", "delete the `*.pkl` files",
            # the compiled kernel
            'kernel="compiled"', "set_kernel", "sim.compile()",
            "three modes over two loops", 'kernel="fast"', "8–15% slower",
            "repro/sim/lanes.py", "instance-level", "stride=",
            "BENCH_s1.json", "baseline.json",
            # the kernel decision table + the batched mode it indexes
            "## Choosing a kernel", "batched", "BatchSimulator",
            "BATCHING.md",
            # load_sweep keys lanes: the one key the merge moved
            "`load_sweep` keys lanes, not rates", "measure_load_point_lane",
            "never a wrong hit", "Campaign keys (one lane or N) did not move",
        ):
            assert term in text, term

    def test_ledger_table_is_the_committed_baseline(self):
        """The one numbers table in the guide is baseline.json, rendered
        (workloads x BENCHMARK.json's end-to-end metrics, median +-
        spread); a rebaseline fails here and prints the new block."""
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            columns = json.load(f)["end_to_end"]
        baseline = os.path.join(ROOT, "benchmarks", "ledger", "baseline.json")
        with open(baseline, encoding="utf-8") as f:
            workloads = json.load(f)["end_to_end"]
        lines = [
            "| workload | "
            + " | ".join(f"`{c['name']}` ({c['unit']})" for c in columns) + " |",
            "|---|" + "---:|" * len(columns),
        ]
        for name, row in workloads.items():
            cells = (row["metrics"][c["name"]] for c in columns)
            lines.append(f"| `{name}` | " + " | ".join(
                f"{m['median']:.4g} ± {m['spread']:.1%}" for m in cells) + " |")
        want = "\n".join(lines) + "\n"
        assert len(lines) == 2 + 7 and len(columns) == 4
        with open(self.PATH, encoding="utf-8") as f:
            text = f.read()
        begin, end = "<!-- ledger-table:begin -->\n", "<!-- ledger-table:end -->\n"
        assert text.count(begin) == 1 and text.count(end) == 1
        got = text.split(begin)[1].split(end)[0]
        assert got == want, (
            "docs/PERFORMANCE.md ledger table drifted from "
            f"benchmarks/ledger/baseline.json; expected block:\n{want}"
        )

    def test_every_python_block_runs(self):
        blocks = extract_python_blocks(self.PATH)
        assert len(blocks) >= 3, "the guide promises runnable snippets"
        for i, block in enumerate(blocks):
            exec(compile(block, f"PERFORMANCE-snippet-{i}", "exec"), {})


class TestObservabilityDoc:
    PATH = os.path.join(ROOT, "docs", "OBSERVABILITY.md")

    def test_exists_and_is_cross_linked(self):
        assert os.path.exists(self.PATH)
        for doc in (
            "README.md",
            os.path.join("docs", "ARCHITECTURE.md"),
            os.path.join("docs", "PERFORMANCE.md"),
            os.path.join("docs", "BATCHING.md"),
            os.path.join("docs", "CHECKPOINT.md"),
        ):
            with open(os.path.join(ROOT, doc), encoding="utf-8") as f:
                assert "OBSERVABILITY.md" in f.read(), f"{doc} must link the guide"

    def test_covers_the_contract(self):
        with open(self.PATH, encoding="utf-8") as f:
            text = f.read()
        for term in (
            # metrics schema
            "repro.telemetry/v1", "counters", "gauges", "series",
            "histograms", "validate_metrics",
            # trace event reference + Perfetto howto
            "pkt_inject", "hop", "pkt_eject", "link_error",
            "ui.perfetto.dev", "chrome://tracing", "trace.json",
            # heatmaps, probes, CLI, overhead table
            "heatmap_csv", "add_probe", "python -m repro report",
            "report-smoke", "bench_s2_telemetry_overhead",
            # the three-kernel model and the CI-bearing artifacts
            "all three kernels", "structural event", "generic lane",
            "ci95", "replicas", "BENCH_s3.json", "BENCH_a8.json",
            "--replicas", "BATCHING.md",
            # fleet telemetry: run events, profiler, dashboard, regress
            "repro.telemetry.events/v1", "events.jsonl",
            "point_start", "retry", "point_end", "checkpoint",
            "lane_batch", "run_end", "replay_summary",
            "KernelProfiler", "sample_every", "profile.json",
            "python -m repro top", "metrics.prom",
            "MetricsRegistry.merge",
            "bench-diff", "baseline.json", "BENCHMARK.json", "unresolved",
            "not comparable", "benchmark PR", "top-smoke",
        ):
            assert term in text, term

    def test_has_an_overhead_table(self):
        with open(self.PATH, encoding="utf-8") as f:
            text = f.read()
        assert "| telemetry off" in text and "| full suite" in text

    def test_every_python_block_runs(self):
        blocks = extract_python_blocks(self.PATH)
        assert len(blocks) >= 2, "the guide promises runnable snippets"
        for i, block in enumerate(blocks):
            exec(compile(block, f"OBSERVABILITY-snippet-{i}", "exec"), {})


class TestResilienceDoc:
    PATH = os.path.join(ROOT, "docs", "RESILIENCE.md")

    def test_exists_and_is_cross_linked(self):
        assert os.path.exists(self.PATH)
        for doc in (
            "README.md",
            os.path.join("docs", "PROTOCOL.md"),
            os.path.join("docs", "OBSERVABILITY.md"),
        ):
            with open(os.path.join(ROOT, doc), encoding="utf-8") as f:
                assert "RESILIENCE.md" in f.read(), f"{doc} must link the guide"

    def test_covers_the_contract(self):
        with open(self.PATH, encoding="utf-8") as f:
            text = f.read()
        for term in (
            # fault model
            "FaultInjector", "FaultWindow", "burst", "stuck", "dead",
            "set_fault", "randomized_windows",
            # recovery machinery
            "txn_timeout", "txn_retries", "SResp.ERR", "resync_timeout",
            "stale",
            # watchdog semantics
            "ProgressWatchdog", "NoProgressError", "horizon",
            "occupancy_snapshot",
            # campaign harness, CLI, CI
            "CampaignSpec", "run_campaign", "python -m repro faults",
            "faults-smoke", "bench_s3_resilience",
            # fleet supervision + chaos harness
            "heartbeat", "liveness", "worker_stall", "restart_budget",
            "poison_threshold", "poisoned", "CircuitBreaker",
            "circuit_open", "degraded", "ChaosPlan", "ChaosMonkey",
            "corrupt_record", "truncate_events",
            "exactly once", "orphan", "python -m repro chaos",
            "chaos-smoke",
            # the pool is ExperimentRunner's: the behaviour deltas
            "repro.flow.pool", "long-lived", "SIGKILLed", "must pickle",
            # scalar = one lane, and the one cache key that moved
            "one loop over `replicas`", "Cache-key rules", "**lane 0**",
            "never a wrong hit", "frozen",
        ):
            assert term in text, term

    def test_every_python_block_runs(self):
        blocks = extract_python_blocks(self.PATH)
        assert len(blocks) >= 2, "the guide promises runnable snippets"
        for i, block in enumerate(blocks):
            exec(compile(block, f"RESILIENCE-snippet-{i}", "exec"), {})


class TestCheckpointDoc:
    PATH = os.path.join(ROOT, "docs", "CHECKPOINT.md")

    def test_exists_and_is_cross_linked(self):
        assert os.path.exists(self.PATH)
        for doc in (
            os.path.join("docs", "RESILIENCE.md"),
            os.path.join("docs", "PERFORMANCE.md"),
        ):
            with open(os.path.join(ROOT, doc), encoding="utf-8") as f:
                assert "CHECKPOINT.md" in f.read(), f"{doc} must link the guide"

    def test_covers_the_contract(self):
        with open(self.PATH, encoding="utf-8") as f:
            text = f.read()
        for term in (
            # snapshot contract + format
            "SimSnapshot", "SnapshotError", "snapshot()", "restore(",
            "SNAPSHOT_STRUCTURAL", "SNAPSHOT_VERSION", "sha256",
            "verify_checkpoint", "stats_digest",
            # hardened runner
            "runs.jsonl", "timeout", "retries", "PointFailure",
            "on_failure", "corrupt", "read_journal",
            # ... on the one supervised pool: the behaviour deltas
            "repro.flow.pool", "long-lived", "restart budget",
            "poisoned", "SIGKILLed", "must pickle",
            # campaign + CLI + CI
            "checkpoint_every", "--checkpoint-every", "--resume",
            "REPRO_CHECKPOINT_EVERY", "checkpoint-smoke", "timeout_guard",
            # kernel-agnostic restores
            "kernel-agnostic", "snap.kernel", "restore_kernel",
            '`kernel != "interpreted"`',
            # the v2 batch container and its kill-and-resume smoke
            "snap.batch", "assume_lane", "batch-smoke", "BATCHING.md",
            # one checkpoint format, file name kept per replica count
            "## Checkpointed campaigns: one format",
            "kept per replica count", "`-r{N}`", "campaign_checkpoint_path",
            "BatchSimulator.resume_lane", "pre-merge one-lane checkpoint",
            "ignored, never trusted",
        ):
            assert term in text, term

    def test_every_python_block_runs(self):
        blocks = extract_python_blocks(self.PATH)
        assert len(blocks) >= 3, "the guide promises runnable snippets"
        for i, block in enumerate(blocks):
            exec(compile(block, f"CHECKPOINT-snippet-{i}", "exec"), {})


class TestBatchingDoc:
    PATH = os.path.join(ROOT, "docs", "BATCHING.md")

    def test_exists_and_is_cross_linked(self):
        assert os.path.exists(self.PATH)
        for doc in (
            "README.md",
            os.path.join("docs", "ARCHITECTURE.md"),
            os.path.join("docs", "PERFORMANCE.md"),
            os.path.join("docs", "OBSERVABILITY.md"),
            os.path.join("docs", "RESILIENCE.md"),
            os.path.join("docs", "CHECKPOINT.md"),
        ):
            with open(os.path.join(ROOT, doc), encoding="utf-8") as f:
                assert "BATCHING.md" in f.read(), f"{doc} must link the guide"

    def test_covers_the_contract(self):
        with open(self.PATH, encoding="utf-8") as f:
            text = f.read()
        for term in (
            # lanes and the bit-identity contract
            "BatchSimulator", "begin_lane", "run_lanes", "SEED_STRIDE",
            "seed_stride", "never invalidates", "stats_digest",
            # idle-span skipping
            "idle_until", "# idle spans: per-cycle", "`sim.run(n)`",
            "ms_per_lane", "scalar_ms_per_run",
            # per-lane fault schedules
            "lane_windows", "set_windows", "probe_links",
            # CI math
            "mean_ci95", "t_quantile_95", "Student-t", "summarize",
            # harness integration + CLI
            "run_campaign_replicated", "replicas=", "lane_metrics",
            "--replicas", "REPRO_REPLICAS",
            # scalar = one lane: one campaign body, one sweep body
            "scalar = one lane", "`run_campaign(spec, replicas=N)`",
            "ci95 is None", "measure_load_point_lane",
            "attach_manifests", "as `None`", "stride knob",
            "frozen token", "reused by it",
            "`BatchSimulator.resume_lane(noc, snap, replicas)`",
            "one geometry check",
            # checkpoints + CI artifacts
            "snap.batch", "SNAPSHOT_VERSION", "assume_lane",
            "batch-smoke", "BENCH_s4.json",
        ):
            assert term in text, term

    def test_every_python_block_runs(self):
        blocks = extract_python_blocks(self.PATH)
        assert len(blocks) >= 3, "the guide promises runnable snippets"
        for i, block in enumerate(blocks):
            exec(compile(block, f"BATCHING-snippet-{i}", "exec"), {})


class TestExperimentsDoc:
    def test_mentions_every_figure(self):
        with open(os.path.join(ROOT, "EXPERIMENTS.md"), encoding="utf-8") as f:
            text = f.read()
        for fig in [f"F{i}" for i in range(1, 11)]:
            assert f"## {fig} " in text or f"{fig} —" in text or f"{fig} --" in text, fig


class TestServiceDoc:
    PATH = os.path.join(ROOT, "docs", "SERVICE.md")

    def test_exists_and_is_cross_linked(self):
        assert os.path.exists(self.PATH)
        for doc in (
            "README.md",
            os.path.join("docs", "OBSERVABILITY.md"),
            os.path.join("docs", "CHECKPOINT.md"),
        ):
            with open(os.path.join(ROOT, doc), encoding="utf-8") as f:
                assert "SERVICE.md" in f.read(), f"{doc} must link the guide"

    def test_covers_the_contract(self):
        with open(self.PATH, encoding="utf-8") as f:
            text = f.read()
        for term in (
            # the store: layout, keys, verification, maintenance
            "repro.store/v1", "STORE.json", "objects directory is the index",
            ".rec", "*.corrupt", "sha256", "CACHE_VERSION",
            "stable_repr", "os.replace", "last-write-wins",
            "conflicts", "exactly one file publish", "gc(", "StoreError",
            "functools.partial",
            # the dispatcher: ExperimentRunner's own pool, one format
            "(`repro.flow.pool`)", "**is** `ExperimentRunner`'s pool",
            "results then live **only** in `store`",
            "WorkStealingDispatcher", "MapSession", "round-robin",
            "steals", "worker_restarts", "digest-identical",
            "`steal` event", "thief", "victim",
            # the HTTP service
            "python -m repro serve", "--port 0", "--max-inflight",
            "POST /query", "GET /healthz", "GET /metrics",
            "/jobs/", "since=", "429", "202", "curl",
            "to_prometheus", "events.jsonl",
            "repro.telemetry.events/v1", "serve.inflight",
            # the query grammar
            "QuerySpec", "parse_query", "QueryEngine",
            "mesh-5x5", "min_freq_mhz", "objective",
            "served_from", "wait",
            # one probe per request; malformed values are the client's 400
            "engine.lookup(spec)", "engine.answer(spec, points,",
            "integers >= 4", "integers >= 2", "bad_request",
            # supervision + graceful degradation
            "heartbeat", "liveness", "worker_stall", "restart_budget",
            "poison_threshold", "poisoned", "CircuitBreaker",
            "circuit_open", "circuit_close", "serve.circuit_open",
            "\"degraded\": true", "hints", "FarmUnavailable",
            "Retry-After", "retryable", "method_not_allowed",
            "--request-timeout", "RESILIENCE.md",
            # smoke coverage
            "serve-smoke", "bench-smoke", "chaos-smoke",
        ):
            assert term in text, term
        for gone in ("repro.serve.dispatch", "writes publish to both"):
            assert gone not in text, gone

    def test_has_the_store_layout_and_endpoint_table(self):
        with open(self.PATH, encoding="utf-8") as f:
            text = f.read()
        assert "objects/" in text and "| endpoint |" in text

    def test_every_python_block_runs(self):
        blocks = extract_python_blocks(self.PATH)
        assert len(blocks) >= 3, "the guide promises runnable snippets"
        for i, block in enumerate(blocks):
            exec(compile(block, f"SERVICE-snippet-{i}", "exec"), {})
