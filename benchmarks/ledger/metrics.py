"""The ledger's one registry: workloads, end-to-end and per-layer metrics.

Everything that names a metric -- the JSON result line, the printed
report, ``BENCHMARK.json`` at the repo root and the glossary in
``README.md`` -- is generated from the tables below, so a name exists
in exactly one place.  Run ``python3 benchmarks/ledger/metrics.py
--benchmark-json`` / ``--glossary`` to regenerate the two derived files;
``selfcheck.py`` fails when either has drifted.

Layers are module names (``repro.<layer>``); ``bench`` is the harness
itself.  ``moves`` is the prediction written down *before* measuring:
which end-to-end metric the layer metric should move, on which workload.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

RUN_SECONDS = 10
COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # the unit of work `work_per_s` counts on this workload
    op: str  # what one timed operation is
    why: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    moves: str  # which end-to-end metric it should move, and where
    measured_by: str
    bound: Optional[float] = None  # end-to-end only


WORKLOADS: Sequence[Workload] = (
    Workload(
        "sim_saturated", "simulated cycles",
        "measure_load_point: 4x4 mesh, 8+8 cores, uniform rate 0.4, compiled kernel, 200+800 cycles, build+codegen included",
        "Past saturation: ~67 component ticks execute per cycle against ~8 on sim_sparse, so host time is the tick/latch datapath and idle skipping can do little. A datapath change must show here.",
    ),
    Workload(
        "sim_sparse", "simulated cycles",
        "same call at rate 0.002, 200+40000 cycles",
        "~90% of ticks are skipped, so host time is the scheduler (active set, hot-wire latch, wake plumbing). A datapath change predicts no change here; a scheduler change shows here only.",
    ),
    Workload(
        "batch_campaign", "replica lanes",
        "bench_s4 rig (2x2 mesh, rate 0.002, 3 txns/master, per-lane FaultWindow phase, horizon 100000): build + BatchSimulator(noc, 64) + run_lanes(digest=True)",
        "Same repro.sim layer used differently: in-place lane reset, run_to_event idle-span collapse, Student-t reduce. A kernel change that breaks lane reuse or skipping shows as a loss here.",
    ),
    Workload(
        "sweep_farm", "design points",
        "one cold 64-point explore_design_space (4 topologies x 4 widths x 4 depths, anneal 600) under a fresh seed through ExperimentRunner(store, jobs=2)",
        "Points are cheap (~10 ms), so a cold sweep is dominated by pool spawn, pickle and store.put overhead, not by fn. The 'one pool' refactor must show here.",
    ),
    Workload(
        "sweep_warm", "design points",
        "re-run of an already stored 64-point sweep through the same runner: 64 pure store hits",
        "Read side of the store without HTTP: key hashing + store.get per point. The sweep's warm phase, split off because every workload must report every end-to-end metric.",
    ),
    Workload(
        "query_hit", "requests",
        "one POST /query to the real `repro serve` subprocess over a 96-point store: a seeded covered slice (2-32 points), new TCP connection each, one closed-loop client",
        "Pure serve path: HTTP parse, parse_query, keys() (rebuilt per call), N store.get, Pareto, JSON. No simulator or farm work at all, so kernel and pool changes predict no change here.",
    ),
    Workload(
        "query_miss", "design points",
        "one POST /query with wait=true for a 12-point slice under a fresh seed on an empty store: every point is farmed through WorkStealingDispatcher and published",
        "Dispatch, worker spawn, evaluate and store.put dominate; keys()/get are a small share. A key cache shows on query_hit, not here; a long-lived farm shows here, not on query_hit.",
    ),
)

END_TO_END: Sequence[Metric] = (
    Metric(
        "work_per_s", "1/s", "higher",
        "the primary throughput of every workload, in that workload's unit of work",
        "units of work completed / summed wall clock of the timed ops (closed loop, one caller), x mean host-reference quantum / 5.55 ms",
        bound=0.25,
    ),
    Metric(
        "op_p50_ms", "ms", "lower",
        "what one DSE caller waits for one operation (one sweep point, one batch, one sweep, one POST /query)",
        "median wall clock of the timed ops (queries: client-observed, connect to last byte) / (median host-reference quantum / 5.55 ms)",
        bound=0.25,
    ),
    Metric(
        "setup_s", "s", "lower",
        "shows work moved out of the timed window into set-up",
        "repro imports + median of 3 set-ups (input generation, warm-up op, store seeding, server boot to the 'serving on' line)",
        bound=0.25,
    ),
    Metric(
        "peak_rss_mb", "MB", "lower",
        "host memory a caller must provision",
        "ru_maxrss of the benchmark process (in-process workloads) or VmHWM of the server process (query workloads) after the timed window",
        bound=0.10,
    ),
)

_SIM = "sim_saturated, sim_sparse"

PER_LAYER: Sequence[Metric] = (
    # repro.network -- fixed costs of one sweep point
    Metric("network.build_ms", "ms", "lower",
           f"work_per_s on {_SIM} by <2% (fixed cost); batch_campaign not at all (built once per batch)",
           "span around TopologyNocBuilder()(), median per traced op"),
    Metric("network.populate_ms", "ms", "lower",
           "as network.build_ms", "span around noc.populate"),
    Metric("network.stats_digest_ms", "ms", "lower",
           "no end-to-end metric (outside measure_load_point); batch_campaign pays it once per lane",
           "span around noc.stats_digest()"),
    Metric("network.flits_carried", "count", "higher",
           "none: simulated, must be bit-identical across commits for a simulator-only change",
           "Noc.total_flits_carried() of the first traced op"),
    Metric("network.completed", "count", "higher",
           "none: simulated, bit-identical as above", "Noc.total_completed() of the first traced op"),
    Metric("network.retransmissions", "count", "lower",
           "none: simulated, bit-identical as above", "Noc.total_retransmissions() of the first traced op"),
    # repro.sim -- kernel
    Metric("sim.compiled.compile_ms", "ms", "lower",
           f"work_per_s on {_SIM} (fixed ~70 ms per point); sweep_* and query_* not at all",
           "span around noc.sim.compile()"),
    Metric("sim.kernel.run_s", "s", "lower",
           f"op_p50_ms on {_SIM}: it is the op minus the fixed costs above",
           "spans around noc.run (warm-up + measured window), median per traced op"),
    Metric("sim.kernel.run_share", "share", "higher",
           "qualifies sim_saturated: the tick span must stay >=80% of the op for the workload to mean 'datapath'",
           "sim.kernel.run self time / traced op wall clock"),
    Metric("sim.kernel.us_per_cycle", "us", "lower",
           f"work_per_s on {_SIM} (its inverse, less fixed costs)", "sim.kernel.run_s / cycles run"),
    Metric("sim.kernel.ticks_executed", "count", "lower",
           "work_per_s on sim_sparse and batch_campaign (fewer ticks = better scheduler); exact count",
           "noc.sim.ticks_executed, mean per op (per lane on batch_campaign)"),
    Metric("sim.kernel.ticks_skipped", "count", "higher",
           "as ticks_executed; exact count", "noc.sim.ticks_skipped, mean per op or lane"),
    Metric("sim.kernel.skipped_share", "share", "higher",
           "must be >=0.8 on sim_sparse and batch_campaign and ~0 on sim_saturated, or the workloads no longer separate scheduler from datapath",
           "skipped / (skipped + executed)"),
    Metric("sim.kernel.ns_per_tick", "ns", "lower",
           "dominates work_per_s on sim_saturated; on sim_sparse the per-cycle scheduler cost dominates instead",
           "sim.kernel.run_s / ticks_executed"),
    Metric("sim.lane.switch_share", "share", "lower",
           "which lane a datapath change must shrink to move work_per_s on sim_saturated",
           "KernelProfiler (sim.set_profiler, traced ops only): lane est_seconds / run span"),
    Metric("sim.lane.ni_share", "share", "lower", "as switch_share", "ni-initiator + ni-target lanes"),
    Metric("sim.lane.link_share", "share", "lower", "as switch_share", "link lane"),
    Metric("sim.lane.master_share", "share", "lower", "as switch_share", "master lane"),
    Metric("sim.lane.other_share", "share", "lower",
           "latch + loop + profiler wrappers: what is left when every lane is free",
           "1 - the four lane shares"),
    Metric("sim.kernel.fast.cycles_per_s", "1/s", "higher",
           "no end-to-end metric (compiled is the scored kernel): evidence for keeping or deleting the hand-written active-set loop",
           "measure_load_point under kernel='fast' on a 1/4 (sim_saturated) or 1/10 (sim_sparse) window"),
    Metric("sim.kernel.interpreted.cycles_per_s", "1/s", "higher",
           "as above, for the reference loop", "measure_load_point under kernel='interpreted' on a 1/10 (sim_saturated) or 1/50 (sim_sparse) window"),
    # repro.sim.batch
    Metric("sim.batch.setup_ms", "ms", "lower",
           "work_per_s on batch_campaign (once per batch); sim_* not at all",
           "span around BatchSimulator(...) (elaborate + compile)"),
    Metric("sim.batch.ms_per_lane", "ms", "lower",
           "work_per_s on batch_campaign (its inverse)", "run_lanes span / lanes"),
    Metric("sim.batch.skipped_share", "share", "higher",
           "work_per_s on batch_campaign: the idle-span collapse is the batch win", "per-lane tick counters summed over lanes"),
    Metric("sim.batch.reduce_ms", "ms", "lower",
           "work_per_s on batch_campaign by <1%", "span around mean_ci95 over every collected metric"),
    Metric("sim.batch.scalar_ms_per_run", "ms", "lower",
           "none: the base of speedup_over_scalar", "8 scalar rebuild + compile + run of the same rig"),
    Metric("sim.batch.speedup_over_scalar", "x", "higher",
           "none directly: a kernel change that helps scalar runs but not lanes lowers it",
           "scalar_ms_per_run / (batch wall clock / lanes)"),
    # repro.flow
    Metric("flow.dse.fn_ms_per_point", "ms", "lower",
           "work_per_s on sweep_farm and query_miss (the useful work)",
           "sum of RunManifest.seconds / points (sweep_farm); serial explore_design_space / points (query_miss)"),
    Metric("flow.dse.pareto_us", "us", "lower",
           "op_p50_ms on query_hit by <3%", "timed pareto_frontier over each answered slice, median"),
    Metric("flow.runner.inline_overhead_ms_per_point", "ms", "lower",
           "none (jobs=1 is not scored): the floor pool_overhead is compared with",
           "one cold sweep at jobs=1: (wall - sum fn) / points"),
    Metric("flow.runner.pool_overhead_ms_per_point", "ms", "lower",
           "work_per_s on sweep_farm: the majority of a cold sweep today",
           "cold sweeps at jobs=2: (wall - sum fn / 2) / points"),
    Metric("flow.runner.overhead_share", "share", "lower",
           "qualifies sweep_farm: must stay >=0.3 for the workload to mean 'pool overhead'",
           "1 - (inline sum fn / 2) / jobs=2 wall clock: the share of a cold sweep that is not ideal 2-core compute"),
    Metric("flow.runner.warm_us_per_point", "us", "lower",
           "work_per_s on sweep_warm (its inverse)", "warm re-run wall clock / points"),
    Metric("flow.runner.retries", "count", "lower",
           "failed / attempted on sweep_farm", "runner.retry_count + failure_count over the traced sweeps"),
    # repro.serve.dispatch
    Metric("serve.dispatch.overhead_ms_per_point", "ms", "lower",
           "work_per_s, op_p50_ms on query_miss; against flow.runner.pool_overhead_ms_per_point it is the number the 'one pool' item needs",
           "the same cold sweep through WorkStealingDispatcher(runner, workers=2): (wall - sum fn / 2) / points"),
    Metric("serve.dispatch.spawn_ms", "ms", "lower",
           "op_p50_ms on query_miss (paid per request today)", "a 2-point map: spawn + teardown of the two workers"),
    Metric("serve.dispatch.steals", "count", "lower", "none: explains variance of the overhead", "dispatcher.steals"),
    Metric("serve.dispatch.restarts", "count", "lower", "failed / attempted", "dispatcher.worker_restarts"),
    # repro.store
    Metric("store.put_us", "us", "lower",
           "work_per_s on sweep_farm and query_miss", "2000 ResultStore.put of DesignPoint values, median"),
    Metric("store.get_us", "us", "lower",
           "x store.gets_per_request -> op_p50_ms on query_hit; work_per_s on sweep_warm",
           "2000 ResultStore.get hits, median"),
    Metric("store.get_miss_us", "us", "lower", "op_p50_ms on query_miss by <1%", "2000 ResultStore.get misses, median"),
    Metric("store.bytes_per_record", "B", "lower", "none: disk footprint of the store", "record file size, mean"),
    Metric("store.gets_per_request", "count", "lower",
           "op_p50_ms on query_hit (the handler looks every key up twice today)",
           "delta of repro_store_hits + repro_store_misses from /metrics / POSTs sent"),
    # repro.serve.service
    Metric("serve.service.parse_us", "us", "lower", "op_p50_ms on query_hit by <2%", "span around parse_query, median over the request pool replayed in-process"),
    Metric("serve.service.keys_ms", "ms", "lower",
           "op_p50_ms, work_per_s on query_hit (runs twice per request); <5% of query_miss",
           "span around QueryEngine.keys"),
    Metric("serve.service.lookup_ms", "ms", "lower", "as keys_ms (lookup = keys + N gets)", "span around QueryEngine.lookup"),
    Metric("serve.service.query_inproc_ms", "ms", "lower", "op_p50_ms on query_hit", "span around QueryEngine.query (pure hit)"),
    Metric("serve.service.serialize_us", "us", "lower", "op_p50_ms on query_hit by <3%", "span around json.dumps(result.as_dict())"),
    Metric("serve.service.keys_share", "share", "lower",
           "the headroom a key cache has on query_hit; must stay <0.1 on query_miss",
           "keys_ms / query_inproc_ms (query_hit) or / serve.miss.inproc_ms (query_miss)"),
    # repro.serve.http
    Metric("serve.http.wire_ms", "ms", "lower",
           "op_p50_ms on query_hit: asyncio accept, HTTP parse, executor hops, socket",
           "client p50 - in-process p50 of parse + lookup + query + serialize for the same bodies"),
    Metric("serve.http.connect_ms", "ms", "lower", "op_p50_ms on query_* (new connection per request)", "TCP connect span, median"),
    Metric("serve.http.tail_ms", "ms", "lower",
           "none (unbounded here because the sim workloads have ~9 ops per run and support no tail): the client-observed tail on query_*",
           "the highest percentile with >=10 samples beyond it"),
    Metric("serve.http.tail_pct", "%", "higher", "none: which percentile tail_ms is", "100 * (1 - 10 / n), floored to p50/p75/p90/p95/p99"),
    Metric("serve.http.requests", "count", "higher", "none: must equal the requests the client sent", "delta of repro_serve_http_requests from /metrics"),
    Metric("serve.http.errors", "count", "lower", "failed / attempted", "delta of repro_serve_http_errors"),
    Metric("serve.http.rejected", "count", "lower", "failed / attempted", "429 answers seen by the client"),
    # repro.serve miss path
    Metric("serve.miss.p75_ms", "ms", "lower", "op_p50_ms on query_miss", "client p75"),
    Metric("serve.miss.inproc_ms", "ms", "lower", "op_p50_ms on query_miss minus the HTTP share",
           "same-shape fresh-seed specs through an in-process QueryEngine(workers=2) on a fresh store, median"),
    Metric("serve.miss.farm_share", "share", "lower",
           "what a long-lived farm could save on query_miss",
           "(inproc - lookup - serial fn / 2) / inproc"),
    # the harness
    Metric("bench.trace_overhead_share", "share", "lower",
           "none: must stay <0.25 for the traced shares to be representative",
           "(traced op p50 - untraced op p50) / untraced, both measured inside the --trace 1 run"),
    Metric("bench.host_ref_ms", "ms", "lower",
           "none: host weather. End-to-end times are divided by this / 5.55 ms; per-layer times are as timed, so scale them by it before comparing runs",
           "median wall clock of the fixed reference loop (100000 iterations) timed between the untraced ops"),
    Metric("bench.op_iqr_share", "share", "lower",
           "none: the noise floor a claimed gain has to clear",
           "interquartile range / median of the untraced op latencies of this run"),
)


def _validate() -> None:
    assert len(PATHS) >= 1
    assert 2 <= len(WORKLOADS) <= 8, len(WORKLOADS)
    assert 1 <= len(END_TO_END) <= 16, len(END_TO_END)
    assert 1 <= len(PER_LAYER) <= 128, len(PER_LAYER)
    names = [w.name for w in WORKLOADS] + [m.name for m in END_TO_END + tuple(PER_LAYER)]
    assert len(names) == len(set(names)), "duplicate name in the registry"
    for name in names:
        assert _NAME.match(name), name
    for w in WORKLOADS:
        assert len(w.why) <= 200 and "\n" not in w.why, w.name
    for m in tuple(END_TO_END) + tuple(PER_LAYER):
        assert _UNIT.match(m.unit), (m.name, m.unit)
        assert m.better in ("higher", "lower"), m.name
    for m in END_TO_END:
        assert m.bound is not None and 0 < m.bound <= 0.25, m.name
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert setup.unit == "s" and setup.better == "lower"
    # Set-up is the noisiest number (process spawn, cold imports): it
    # carries the widest bound.
    assert all(m.bound <= setup.bound for m in END_TO_END)


_validate()

WORKLOAD_NAMES: List[str] = [w.name for w in WORKLOADS]
E2E_NAMES: List[str] = [m.name for m in END_TO_END]
LAYER_NAMES: List[str] = [m.name for m in PER_LAYER]
UNITS: Dict[str, str] = {m.name: m.unit for m in tuple(END_TO_END) + tuple(PER_LAYER)}


def benchmark_json() -> str:
    """The exact text of ``BENCHMARK.json`` for this registry."""
    doc = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def glossary_markdown() -> str:
    """The README glossary: one table per kind, generated, never edited."""
    lines = ["### Workloads", "", "| workload | one operation | unit of work | why it exists |", "|---|---|---|---|"]
    for w in WORKLOADS:
        lines.append(f"| `{w.name}` | {w.op} | {w.unit} | {w.why} |")
    lines += ["", "### End-to-end metrics", "", "| metric | unit | better | bound | measured by | what it tells a user |", "|---|---|---|---|---|---|"]
    for m in END_TO_END:
        lines.append(f"| `{m.name}` | {m.unit} | {m.better} | {m.bound:.0%} | {m.measured_by} | {m.moves} |")
    lines += ["", "### Per-layer metrics", "", "| metric | unit | better | measured by | should move |", "|---|---|---|---|---|"]
    for m in PER_LAYER:
        lines.append(f"| `{m.name}` | {m.unit} | {m.better} | {m.measured_by} | {m.moves} |")
    return "\n".join(lines) + "\n"


def format_value(name: str, value: float) -> str:
    return f"{name} = {value:.6g} {UNITS[name]}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--benchmark-json"]:
        sys.stdout.write(benchmark_json())
    elif sys.argv[1:] == ["--glossary"]:
        sys.stdout.write(glossary_markdown())
    else:
        sys.exit("usage: metrics.py --benchmark-json | --glossary")
