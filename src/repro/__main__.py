"""Top-level command line: ``python -m repro <verb> [flags]``.

One subparser per verb, each declaring only the flags that verb reads
(``python -m repro <verb> --help`` lists them).  ``info``, ``demo``,
``mesh-case-study`` and ``figures`` run here; every other verb's body
lives beside its package and is imported only when that verb runs, so
parsing a command line loads no ``repro`` subpackage.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys


def _info(args) -> int:
    import repro

    print(f"repro {repro.__version__} -- xpipes Lite (DATE 2005) reproduction")
    print(build_parser().format_help())
    rows = [
        ("repro.sim", "cycle-accurate kernel, stats, tracing, VCD"),
        ("repro.core", "flits, OCP, packetization, NIs, switch, links, CRC"),
        ("repro.network", "topologies, NoC builder, traffic, monitors, deadlock"),
        ("repro.telemetry", "metrics registry, lifecycle tracing, heatmaps"),
        ("repro.bus", "AHB-like shared bus + bridged hierarchy baseline"),
        ("repro.synth", "area/power/timing/energy models @130nm anchors"),
        ("repro.flow", "task graphs, mapping, floorplan, bandwidth, selection"),
        ("repro.compiler", "NoC spec -> routing tables + sim + SystemC views"),
        ("repro.store", "content-addressed, sha256-verified result store"),
        ("repro.serve", "work-stealing farm + HTTP design-space queries"),
    ]
    for mod, desc in rows:
        print(f"  {mod:<16} {desc}")
    print("\nsee README.md, DESIGN.md, EXPERIMENTS.md, docs/")
    return 0


def _demo(args) -> int:
    from repro.network import Noc, UniformRandomTraffic, mesh
    from repro.network.topology import attach_round_robin
    from repro.synth import measure_noc_energy, synthesize_noc

    topo = mesh(2, 2)
    cpus, mems = attach_round_robin(topo, 2, 2)
    noc = Noc(topo)
    noc.populate(
        {c: UniformRandomTraffic(mems, 0.1, seed=i) for i, c in enumerate(cpus)},
        max_transactions=100,
    )
    cycles = noc.run_until_drained(max_cycles=1_000_000)
    lat = noc.aggregate_latency()
    print(f"2x2 mesh, 2 CPUs + 2 memories, 200 transactions in {cycles} cycles")
    print(f"  transaction latency: mean {lat.mean():.1f}, "
          f"p95 {lat.percentile(95):.0f} cycles")
    print(f"  network latency    : mean {noc.network_latency().mean():.1f} cycles")
    report = synthesize_noc(topo, target_freq_mhz=1000)
    print(f"  synthesis estimate : {report.total_area_mm2:.3f} mm2, "
          f"{report.total_power_mw:.0f} mW @1 GHz")
    energy = measure_noc_energy(noc)
    print(f"  energy             : {energy.pj_per_transaction:.0f} pJ/transaction")
    return 0


def _mesh_case_study(args) -> int:
    import runpy

    runpy.run_path("examples/mesh_case_study.py", run_name="__main__")
    return 0


def _figures(args) -> int:
    import pathlib
    import traceback

    from repro.flow.runner import ExperimentRunner
    from repro.store import ResultStore

    # Every benchmarks/bench_*.py is a plain module whose main(runner)
    # regenerates one figure and asserts its shape claims.
    names = sorted(p.stem for p in pathlib.Path("benchmarks").glob("bench_*.py"))
    if not names:
        print("figures: no benchmarks/bench_*.py here; run from the repo root",
              file=sys.stderr)
        return 2
    failed = []
    store = ResultStore(args.cache) if args.cache else None
    with ExperimentRunner(jobs=args.jobs, store=store) as runner:
        for name in names:
            try:
                importlib.import_module(f"benchmarks.{name}").main(runner)
            except Exception:
                traceback.print_exc()
                failed.append(name)
    if failed:
        print(f"figures: {len(failed)} failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _elsewhere(target: str):
    """The handler of a verb whose body lives beside its package
    (``"module:function"``): the module is imported only when the verb
    runs, and the function gets the verb's flags as keyword arguments --
    each flag's ``dest`` is a parameter name."""

    def run(args) -> int:
        module, name = target.split(":")
        kwargs = {k: v for k, v in vars(args).items() if k != "run"}
        return getattr(importlib.import_module(module), name)(**kwargs)

    return run


def _within(convert, low, high, what: str, low_open: bool = False):
    """``type=`` of a numeric flag: a finite ``convert(text)`` in
    ``[low, high]`` (``(low, high]`` when ``low_open``), else a usage
    error (exit 2) that names the flag."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if (value is None or not math.isfinite(value)
                or not low <= value <= high or (low_open and value == low)):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_INF = float("inf")
_positive = _within(int, 1, _INF, "a positive integer")
_seconds = _within(float, 0, _INF, "a number >= 0")


def _mesh(text: str) -> "tuple[int, int]":
    """``type=`` of ``report --mesh``: ``WxH`` with W and H >= 1, as
    ``(W, H)``."""
    try:
        w, h = (int(x) for x in text.lower().split("x"))
    except ValueError:
        w = h = 0
    if min(w, h) < 1:
        raise argparse.ArgumentTypeError(f"must be WxH with W, H >= 1, got {text!r}")
    return w, h


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` parser: one subparser per verb."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Quick tours of the xpipes Lite reproduction."
    )
    parser.set_defaults(run=_info)
    verbs = parser.add_subparsers(title="verbs", metavar="<verb>")

    def verb(name, run, summary, parents=()):
        sub = verbs.add_parser(name, help=summary, description=summary, parents=parents)
        sub.set_defaults(run=run)
        return sub.add_argument

    # figures and faults: how sweep points and campaigns are run.
    run_options = argparse.ArgumentParser(add_help=False)
    add = run_options.add_argument
    add("--jobs", type=_positive, default=1, metavar="N",
        help="fan sweep points over N worker processes (default: 1, sequential)")
    add("--cache", metavar="DIR",
        help="memoize sweep results in DIR keyed by config hash; re-running "
        "on the same DIR resumes a killed run (default: no cache)")

    verb("info", _info, "package inventory and this verb list")
    verb("demo", _demo, "run the quickstart network")
    verb("mesh-case-study", _mesh_case_study, "the paper's 2.6 mm2 headline")
    verb("figures", _figures,
         "regenerate every figure: main(runner) of each benchmarks/bench_*.py",
         parents=[run_options])

    add = verb("report", _elsewhere("repro.telemetry.noc:report_main"),
               "run uniform random traffic on a mesh with the full telemetry "
               "suite attached (docs/OBSERVABILITY.md)")
    add("--out", default="telemetry-report", metavar="DIR",
        help="output directory for metrics.json / trace.json / "
        "heatmap.{txt,csv} (default: telemetry-report)")
    add("--mesh", type=_mesh, default="2x2", metavar="WxH",
        help="mesh dimensions (default: 2x2)")
    add("--cycles", type=_positive, default=2000, metavar="N",
        help="cycles to simulate (default: 2000)")
    add("--rate", type=_within(float, 0, 1, "in [0, 1]"), default=0.1, metavar="R",
        help="injection attempts per master per cycle (default: 0.1)")
    add("--window", type=_positive, default=100, metavar="W",
        help="heatmap window width in cycles (default: 100)")
    add("--check", action="store_true",
        help="re-read and validate every artifact, exit non-zero on violations")

    add = verb("faults",
               _elsewhere("repro.faults.campaign:faults_main"),
               "fault-injection campaign on a 2x2 mesh (docs/RESILIENCE.md)",
               parents=[run_options])
    add("--replicas", type=_positive, metavar="N",
        help="measure every point under N seed-varied replica lanes and "
        "report mean +- 95%% CI (default: single seed; see docs/BATCHING.md)")
    add("--smoke", action="store_true",
        help="run the tiny deterministic resilience check (one recovering "
        "campaign + one watchdog catch), exit non-zero if either "
        "expectation fails")

    add = verb("top", _elsewhere("repro.telemetry.top:top_main"),
               "live dashboard over a run directory's events.jsonl")
    add("--dir", dest="run_dir", default=".repro-cache", metavar="DIR",
        help="run directory holding events.jsonl (default: .repro-cache)")
    add("--once", action="store_true",
        help="render a single frame and exit instead of looping")
    add("--interval", type=_seconds, default=1.0, metavar="S",
        help="seconds between dashboard repaints (default: 1.0)")
    add("--prom", metavar="FILE",
        help="also write a Prometheus text exposition of the summary to "
        "FILE each frame")

    add = verb("bench-diff", _elsewhere("repro.telemetry.regress:bench_diff"),
               "perf gate: diff a ledger against the baseline under "
               "BENCHMARK.json's bounds; exit 1 on a regression, 2 when a "
               "file is missing or malformed")
    add("--ledger", dest="ledger_path", metavar="FILE",
        default="benchmarks/ledger/out/ledger.json",
        help="the ledger document to judge "
        "(default: benchmarks/ledger/out/ledger.json)")
    add("--baseline", dest="baseline_path", metavar="FILE",
        default="benchmarks/ledger/baseline.json",
        help="the ledger document to judge it against "
        "(default: benchmarks/ledger/baseline.json)")

    add = verb("serve", _elsewhere("repro.serve.http:serve_main"),
               "HTTP design-space query service over a result store "
               "(docs/SERVICE.md)")
    add("--store", default=".repro-store", metavar="DIR",
        help="root of the content-addressed result store (default: "
        ".repro-store; created on first use, shareable across hosts)")
    add("--host", default="127.0.0.1", metavar="ADDR",
        help="address to bind (default: 127.0.0.1)")
    add("--port", type=_within(int, 0, 65535, "in [0, 65535]"), default=8787,
        metavar="N",
        help="port to bind; 0 picks a free port, printed on startup "
        "(default: 8787)")
    add("--serve-workers", dest="workers", type=_positive, default=2, metavar="N",
        help="work-stealing worker processes of the query engine's farm "
        "(default: 2)")
    add("--max-inflight", type=_positive, default=2, metavar="N",
        help="admission control -- at most N farm evaluations in flight "
        "before POST /query answers 429 (default: 2)")
    add("--request-timeout", type=_seconds, default=120.0, metavar="S",
        help="per-request deadline in seconds; timed-out requests answer "
        "504 with the standard error schema (default: 120; 0 disables)")

    add = verb("compile", _elsewhere("repro.compiler:compile_main"),
               "xpipesCompiler: a NoC specification JSON in; routing "
               "tables, the SystemC-style synthesis view and the "
               "synthesis estimate out")
    spec_or_demo = verbs.choices["compile"].add_mutually_exclusive_group(
        required=True)
    spec_or_demo.add_argument("spec", nargs="?", metavar="SPEC.json",
                              help="NoC specification JSON file")
    spec_or_demo.add_argument("--demo", action="store_true",
                              help="print a starter specification and exit")
    add("-o", "--output", metavar="DIR",
        help="write the synthesis view (SystemC-style sources) into DIR")
    add("--tables", action="store_true", help="print the routing tables")
    add("--report", action="store_true", help="print the synthesis estimate")
    add("--freq", type=_within(float, 0, _INF, "a number > 0", low_open=True),
        default=1000.0, metavar="MHZ",
        help="target frequency of --report in MHz (default: 1000)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader left (``| head -1``): exit 128 + SIGPIPE, no
        # traceback, and no second error from the exit-time flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return status


if __name__ == "__main__":
    sys.exit(main())
