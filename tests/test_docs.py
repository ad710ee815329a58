"""Documentation stays executable and truthful.

The README quickstart and the package docstring example are executed;
file references in the docs must exist.  Documentation that silently
rots is worse than none.
"""

import ast
import glob
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
            # one pool, one store: what jobs=N and store= mean
            "long-lived", "repro.flow.pool", "ResultStore",
            "events.jsonl", "delete the `*.pkl` files",
            # the compiled kernel
            'kernel="compiled"', "set_kernel", "sim.compile()",
            "three modes over two loops", 'kernel="fast"', "8–15% slower",
            "repro/sim/lanes.py", "instance-level", "stride=",
            "`sim.kernel.*` metrics, not a results file", "baseline.json",
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
            "point_start", "retry", "point_end",
            "lane_batch", "run_end", "replay_summary",
            "KernelProfiler", "sample_every", "profile.json",
            "python -m repro top", "metrics.prom",
            "MetricsRegistry.merge",
            "bench-diff", "baseline.json", "BENCHMARK.json", "unresolved",
            "not comparable", "benchmark PR",
            "test_top_process_agrees_with_a_cached_pool_sweep",
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
            # fleet supervision + the fault state machine
            "heartbeat", "liveness", "worker_stall", "restart_budget",
            "poison_threshold", "poisoned", "CircuitBreaker",
            "circuit_open", "degraded", "KeptPool",
            "RuleBasedStateMachine", "no injection seam",
            "flip_final_payload_byte", "events.jsonl",
            "exactly once", "orphan",
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
            # a point is the unit of resume
            "a point is the unit of resume", "**Resume = run again**",
            "cache_hits", "cache_misses", "no mid-run simulator checkpoint",
            # hardened runner
            "events.jsonl", "timeout", "retries", "PointFailure",
            "on_failure", "corrupt", "sha256", "read_events",
            "there is no second journal", "`point` and `fn`",
            # ... on the one supervised pool: the behaviour deltas
            "repro.flow.pool", "long-lived", "restart budget",
            "poisoned", "SIGKILLed", "must pickle",
            # campaigns, CLI, CI
            "FaultCampaign", "lane_batch", "BATCHING.md",
            "there is no `--resume` flag",
            "`main(runner)`; there is no environment channel",
            "test_killed_and_resumed_stream_replays_to_the_final_result",
            "timeout_guard",
        ):
            assert term in text, term

    def test_every_python_block_runs(self):
        blocks = extract_python_blocks(self.PATH)
        assert len(blocks) >= 2, "the guide promises runnable snippets"
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
            "lane_windows", "set_windows", "may touch any link",
            # CI math
            "mean_ci95", "t_quantile_95", "Student-t", "summarize",
            # harness integration + CLI
            "run_campaign_replicated", "replicas=", "lane_metrics",
            "--replicas", "`REPLICAS` constants",
            # scalar = one lane: one campaign body, one sweep body
            "scalar = one lane", "`run_campaign(spec, replicas=N)`",
            "ci95 is None", "measure_load_point_lane",
            "attach_manifests", "as `None`", "stride knob",
            "frozen token", "reused by it",
            # a campaign is one point: resume = run again
            "## A campaign is one point", "never checkpointed mid-run",
            "`sim.batch.scalar_ms_per_run`",
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
            "repro.store/v2", "STORE.json", "The index is in memory",
            ".seg", "dropped from the index", "sha256", "CACHE_VERSION",
            "stable_repr", "O_APPEND", "last-write-wins",
            "conflicts", "exactly one append", "gc(", "StoreError",
            "functools.partial",
            # the dispatcher: ExperimentRunner's own pool, one format
            "(`repro.flow.pool`)", "**is** `ExperimentRunner`'s pool",
            "There is no other on-disk result format.",
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
            "test_seeded_server_end_to_end", "bench-smoke", "KeptPool",
        ):
            assert term in text, term
        for gone in ("repro.serve.dispatch", "writes publish to both"):
            assert gone not in text, gone

    def test_has_the_store_layout_and_endpoint_table(self):
        with open(self.PATH, encoding="utf-8") as f:
            text = f.read()
        assert "segments/" in text and "| endpoint |" in text

    def test_every_python_block_runs(self):
        blocks = extract_python_blocks(self.PATH)
        assert len(blocks) >= 3, "the guide promises runnable snippets"
        for i, block in enumerate(blocks):
            exec(compile(block, f"SERVICE-snippet-{i}", "exec"), {})


def _joined(text):
    """``text`` with shell continuations and inline code wrapped across
    a line joined onto one line."""
    return re.sub(
        r"(?<!`)(`{1,2})(?!`)[^`]+?(?<!`)\1(?!`)",
        lambda m: m.group().replace("\n", " "),
        text.replace("\\\n", " "),
    )


def cli_command_lines():
    """Every ``python -m repro <verb> ...`` command line in README.md,
    docs/*.md, the Makefile and benchmarks/**/*.py, as ``(file, argv)``:
    prose, code blocks and recipes (shell continuations and inline code
    wrapped across a line joined), plus argv lists in Python source.
    Placeholders (``N``, ``DIR``) and non-literal argv items stand in as
    ``"1"``, which every flag's type accepts."""
    files = ["README.md", "Makefile"]
    files += sorted(glob.glob("docs/*.md", root_dir=ROOT))
    files += sorted(glob.glob("benchmarks/**/*.py", root_dir=ROOT, recursive=True))
    for rel in files:
        with open(os.path.join(ROOT, rel), encoding="utf-8") as f:
            text = f.read()
        joined = _joined(text)
        for m in re.finditer(r"-m repro[ \t]+([^`#)\n]*)", joined):
            yield rel, ["1" if t.isupper() else t for t in m.group(1).split()]
        if rel.endswith(".py"):
            for node in ast.walk(ast.parse(text)):
                if not isinstance(node, ast.List):
                    continue
                items = [e.value if isinstance(e, ast.Constant) else "1"
                         for e in node.elts]
                for i in range(len(items) - 1):
                    if items[i:i + 2] == ["-m", "repro"]:
                        yield rel, items[i + 2:]


def make_targets_named():
    """Every ``make <target>`` named in README.md, docs/*.md, the
    Makefile's comments and the sources under src/, as ``(file,
    target)``: in inline code, or leading a line of a code block
    (fenced, indented, or after a ``$`` prompt)."""
    files = ["README.md", "Makefile"]
    files += sorted(glob.glob("docs/*.md", root_dir=ROOT))
    files += sorted(glob.glob("src/**/*.py", root_dir=ROOT, recursive=True))
    for rel in files:
        with open(os.path.join(ROOT, rel), encoding="utf-8") as f:
            text = f.read()
        if rel == "Makefile":
            text = "\n".join(line for line in text.splitlines()
                             if line.lstrip().startswith("#"))
        joined = _joined(text)
        code = "\n".join(re.findall(r"```[^\n]*\n(.*?)```", joined, re.S))
        for pattern, where in (
            (r"`make[ \t]+([\w-]+)", joined),
            (r"^(?: {4,}|\$ )make[ \t]+([\w-]+)", joined),
            (r"^[ \t]*(?:\$ )?make[ \t]+([\w-]+)", code),
        ):
            for m in re.finditer(pattern, where, flags=re.M):
                yield rel, m.group(1)


class TestCliCommandLines:
    """Docs and scripts cannot drift from the parser: every command line
    they show parses (nothing is executed), so a flag the verb does not
    read fails here."""

    def test_every_command_line_parses(self, capsys):
        from repro.__main__ import build_parser

        bad = []
        for rel, argv in cli_command_lines():
            try:
                build_parser().parse_args(argv)
            except SystemExit as exc:  # --help exits 0
                if exc.code:
                    error = capsys.readouterr().err.strip().splitlines()[-1]
                    bad.append(f"{rel}: python -m repro {' '.join(argv)}  ({error})")
        assert not bad, "\n".join(bad)

    def test_the_collection_reaches_every_source(self):
        found = list(cli_command_lines())
        verbs = {argv[0] for _, argv in found if argv}
        assert {"figures", "report", "faults", "top", "bench-diff", "serve",
                "compile"} <= verbs
        # The ledger's server, by its argv list.
        assert ("benchmarks/ledger/wl_serve.py",
                ["serve", "--store", "1", "--port", "0", "--serve-workers", "1",
                 "--max-inflight", "1"]) in found
        assert any(rel == "Makefile" and "--cycles" in argv for rel, argv in found)

    def test_every_make_target_named_is_a_makefile_target(self):
        with open(os.path.join(ROOT, "Makefile"), encoding="utf-8") as f:
            targets = set(re.findall(r"^([\w-]+):", f.read(), flags=re.M))
        named = list(make_targets_named())
        assert {rel.split("/")[0] for rel, _ in named} >= {
            "README.md", "docs", "src"}
        missing = sorted({f"{rel}: make {t}" for rel, t in named
                          if t not in targets})
        assert not missing, "\n".join(missing)


class TestRoadmapCitations:
    """The ROADMAP is re-anchored and its items renumbered over time --
    which is how every number the docs cited went stale -- so a doc or a
    docstring cites an item by its topic, never by its number."""

    def test_no_doc_or_source_cites_a_roadmap_item_number(self):
        cited = []
        for top in ("docs", "src"):
            for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
                for name in files:
                    if not name.endswith((".md", ".py")):
                        continue
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as f:
                        for lineno, line in enumerate(f, 1):
                            if re.search(r"ROADMAP('s)? (items? )?\d", line):
                                rel = os.path.relpath(path, ROOT)
                                cited.append(f"{rel}:{lineno}: {line.strip()}")
        assert cited == [], "\n".join(cited)
