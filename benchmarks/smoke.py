"""Smoke-run one tiny point of every bench family through the runner.

``make bench-smoke`` executes this script.  Each bench_* family (the
a1-a10 ablations, the f1-f10 paper figures, the s1/s2 system benches) is
represented by one miniature measurement -- same code paths, toy sizes
-- dispatched through :class:`repro.flow.runner.ExperimentRunner`, so a
single quick run exercises the NoC builder, both flow-control modes,
error injection, the synthesis models, the DSE loop, the fast-path
cross-check *and* the runner itself (set REPRO_JOBS / REPRO_CACHE to
smoke the parallel / cached configurations too).  The whole batch must
finish inside a CI-friendly wall-clock budget.

Run directly::

    PYTHONPATH=src python benchmarks/smoke.py
    REPRO_JOBS=4 PYTHONPATH=src python benchmarks/smoke.py
"""

import sys
import time

from repro.bus import SharedBus
from repro.core.config import LinkConfig, NiConfig, NocParameters, SwitchConfig
from repro.flow import demo_multimedia_soc
from repro.flow.dse import explore_design_space
from repro.flow.runner import ExperimentRunner
from repro.network.experiments import (
    TopologyNocBuilder,
    measure_load_point,
    verify_fast_path,
)
from repro.network.noc import Noc, NocBuildConfig
from repro.network.topology import attach_round_robin, mesh
from repro.network.traffic import UniformRandomTraffic
from repro.synth import measure_noc_energy, ni_area_mm2, synthesize_noc

BUDGET_SECONDS = 90.0


def _tiny_noc(config=None, n_cpus=2, n_mems=2):
    topo = mesh(2, 2)
    cpus, mems = attach_round_robin(topo, n_cpus, n_mems)
    noc = Noc(topo, config)
    noc.populate(
        {c: UniformRandomTraffic(mems, 0.05, seed=7 + i) for i, c in enumerate(cpus)},
        max_transactions=15,
    )
    return noc


def smoke_synth_models():
    """f1-f6: the analytical area/power/frequency models."""
    ni = ni_area_mm2(
        NiConfig(params=NocParameters(flit_width=32)),
        initiator=True, n_destinations=4, target_freq_mhz=1000,
    )
    report = synthesize_noc(mesh(2, 2), target_freq_mhz=1000)
    assert 0 < ni < report.total_area_mm2
    return f"2x2 mesh {report.total_area_mm2:.3f} mm2"


def smoke_energy():
    """a6/f5: energy accounting over a real (tiny) run."""
    noc = _tiny_noc()
    noc.run_until_drained(max_cycles=200_000)
    energy = measure_noc_energy(noc)
    assert energy.pj_per_transaction > 0
    return f"{energy.pj_per_transaction:.0f} pJ/txn"


def smoke_bus():
    """a7/f9: the shared-bus baseline."""
    mems = ["mem0", "mem1"]
    bus = SharedBus(["cpu0", "cpu1"], mems)
    bus.populate(
        {f"cpu{i}": UniformRandomTraffic(mems, 0.05, seed=30 + i) for i in range(2)},
        max_transactions=15,
    )
    bus.run_until_drained(max_cycles=200_000)
    return f"bus latency {bus.aggregate_latency().mean():.1f}"


def smoke_load_point():
    """a1-a4/a8: one warmed-up load-sweep point."""
    pt = measure_load_point(
        TopologyNocBuilder(mesh, (2, 2), n_initiators=2, n_targets=2),
        rate=0.05, warmup_cycles=100, measure_cycles=400,
    )
    assert pt.completed > 0
    return f"load point lat {pt.mean_latency:.1f}"


def smoke_dse():
    """a9/f7: one design-space point end to end."""
    _, _, core_graph = demo_multimedia_soc()
    points = explore_design_space(
        core_graph, [mesh(2, 2)], flit_widths=(32,), buffer_depths=(4,),
        seed=2, anneal_iterations=40,
    )
    assert len(points) == 1 and points[0].area_mm2 > 0
    return f"dse point {points[0].area_mm2:.3f} mm2"


def smoke_credit():
    """a10: the credit flow-control alternative."""
    noc = _tiny_noc(NocBuildConfig(flow_control="credit"))
    noc.run_until_drained(max_cycles=200_000)
    assert noc.total_completed() == 30
    return "credit mode 30/30"


def smoke_error_control():
    """a5/f10: lossy links, go-back-N recovery, full delivery."""
    noc = _tiny_noc(NocBuildConfig(link=LinkConfig(error_rate=0.01)))
    noc.run_until_drained(max_cycles=200_000)
    assert noc.total_completed() == 30
    assert noc.total_retransmissions() > 0
    return f"{noc.total_retransmissions()} retransmissions, 30/30"


def smoke_deep_pipeline():
    """f8: the 7-stage original-xpipes switch still runs."""
    noc = _tiny_noc(NocBuildConfig(pipeline_stages=7))
    noc.run_until_drained(max_cycles=200_000)
    assert noc.total_completed() == 30
    return f"7-stage lat {noc.aggregate_latency().mean():.1f}"


def smoke_fast_path():
    """s1: compiled vs fast vs full-tick digest equivalence."""
    digest = verify_fast_path(
        TopologyNocBuilder(mesh, (2, 2), n_initiators=2, n_targets=2),
        cycles=400, rate=0.05,
    )
    return f"digests match ({digest[:12]})"


def smoke_telemetry():
    """s2: the full telemetry suite on a tiny run."""
    from repro.telemetry import NocTelemetry, validate_metrics

    noc = _tiny_noc()
    telem = NocTelemetry(noc)
    noc.run_until_drained(max_cycles=200_000)
    doc = telem.snapshot()
    validate_metrics(doc)
    assert len(telem.collector.events) > 0
    return f"{len(telem.collector.events)} lifecycle events"


POINTS = {
    "synth_models": smoke_synth_models,
    "energy": smoke_energy,
    "bus": smoke_bus,
    "load_point": smoke_load_point,
    "dse": smoke_dse,
    "credit": smoke_credit,
    "error_control": smoke_error_control,
    "deep_pipeline": smoke_deep_pipeline,
    "fast_path": smoke_fast_path,
    "telemetry": smoke_telemetry,
}


def run_point(name):
    """Dispatch by label -- module-level so the runner can pickle it."""
    return POINTS[name]()


def main() -> int:
    runner = ExperimentRunner.from_env()
    names = list(POINTS)
    t0 = time.perf_counter()
    summaries = runner.map(run_point, names, label="smoke")
    elapsed = time.perf_counter() - t0
    for name, summary in zip(names, summaries):
        print(f"  {name:<16} {summary}")
    print(runner.render_report("bench smoke"))
    print(f"total: {elapsed:.1f}s (budget {BUDGET_SECONDS:.0f}s)")
    assert elapsed < BUDGET_SECONDS, (
        f"smoke run blew its budget: {elapsed:.1f}s >= {BUDGET_SECONDS:.0f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
