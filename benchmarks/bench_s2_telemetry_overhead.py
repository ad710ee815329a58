"""S2 -- telemetry overhead: what observability costs, on and off.

The telemetry layer (docs/OBSERVABILITY.md) promises two numbers:

* **disabled** -- a NoC with no :class:`~repro.telemetry.noc.NocTelemetry`
  attached pays only dormant ``if self.lifecycle`` flag checks and one
  ``if self._probes`` test per kernel cycle.  This must stay within 5%
  of a build of the library without those hooks; since that build no
  longer exists, the proxy asserted here is that the dormant-hook run
  stays within 5% (plus timer noise margin) of itself across rounds and
  its wall time is printed for comparison against the S1 baseline row
  in ``docs/PERFORMANCE.md``.
* **enabled** -- the full suite (metrics gauges, queue-occupancy probes,
  link-utilization windows, lifecycle tracing) attached.  The measured
  overhead factor is printed in the figure's rows and mirrored in the
  overhead table of ``docs/OBSERVABILITY.md``.

The fleet-telemetry layer extends the same contract to the other two
kernels (docs/OBSERVABILITY.md, "Fleet telemetry"):

* **compiled kernel + profiler** -- with no
  :class:`~repro.telemetry.profile.KernelProfiler` attached the
  generated program contains exactly one build-time ``_PROF`` branch
  and zero wrappers (the <=1%-disabled bound is structural and asserted
  on the source, not the clock); with one attached the sampled wrappers
  must stay cheap and must not perturb the statistics digest.
* **batch kernel + event streaming** -- a replicated campaign with no
  event sink installed pays one ``current_sink() is not None`` test per
  finished lane (the <5%-disabled bound, asserted as min-of-rounds
  self-consistency with streaming off); with a sink attached the
  per-lane metrics must be byte-identical.

Every time is the minimum of ``ROUNDS`` ``perf_counter`` runs.  The
rows are printed, not written: wall-clock numbers are host-dependent,
and the ledger (``benchmarks/ledger/``) owns tracked timing.
"""

import time

from repro.faults import CampaignSpec, FaultWindow, run_campaign
from repro.network.experiments import TopologyNocBuilder
from repro.network.noc import NocBuildConfig
from repro.network.topology import mesh
from repro.network.traffic import UniformRandomTraffic
from repro.telemetry import KernelProfiler, NocTelemetry
from repro.telemetry import events as _events

CYCLES = 1500
RATE = 0.05
ROUNDS = 3


def best_of(fn):
    """Min-of-``ROUNDS`` wall seconds of ``fn()``, and its last result."""
    best, result = float("inf"), None
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def build():
    # A live tracer puts every component on the generic lane, so the
    # "off" side runs the same all-generic loop ("fast"): the ratio is
    # then the cost of telemetry, not of losing specialized lanes.
    builder = TopologyNocBuilder(
        mesh, (4, 4), n_initiators=8, n_targets=8,
        config=NocBuildConfig(kernel="fast"),
    )
    noc = builder()
    noc.populate(
        {
            c: UniformRandomTraffic(noc.topology.targets, RATE, seed=i)
            for i, c in enumerate(noc.topology.initiators)
        },
    )
    return noc


def run_once(telemetry: bool):
    noc = build()
    telem = NocTelemetry(noc) if telemetry else None
    noc.run(CYCLES)
    return noc, telem


def telemetry_overhead():
    off_s, (noc_off, _) = best_of(lambda: run_once(False))
    on_s, (noc_on, telem) = best_of(lambda: run_once(True))

    overhead = on_s / off_s
    doc = telem.snapshot()
    events = len(telem.collector.events)
    rows = [
        f"S2: telemetry overhead (4x4 mesh, 16 cores, rate {RATE})",
        f"cycles simulated        : {CYCLES}",
        f"telemetry off wall time : {off_s:.3f} s",
        f"telemetry on wall time  : {on_s:.3f} s",
        f"enabled overhead        : {overhead:.2f}x",
        f"lifecycle events        : {events}",
        f"metrics exported        : {len(doc['counters']) + len(doc['gauges']) + len(doc['series']) + len(doc['histograms'])}",
    ]
    print("\n".join(rows))

    # Identical workloads: telemetry must observe, never perturb.
    assert noc_on.total_completed() == noc_off.total_completed(), (
        "attaching telemetry changed simulation results"
    )
    assert events > 0, "lifecycle tracing recorded nothing"
    assert overhead < 5.0, (
        f"enabled telemetry costs {overhead:.1f}x; the suite must stay "
        f"usable on full runs"
    )


def build_compiled():
    builder = TopologyNocBuilder(
        mesh, (4, 4), n_initiators=8, n_targets=8,
        config=NocBuildConfig(kernel="compiled"),
    )
    noc = builder()
    noc.populate(
        {
            c: UniformRandomTraffic(noc.topology.targets, RATE, seed=i)
            for i, c in enumerate(noc.topology.initiators)
        },
    )
    return noc


def run_compiled(profiler):
    noc = build_compiled()
    if profiler is not None:
        noc.sim.set_profiler(profiler)
    noc.run(CYCLES)
    return noc


def compiled_profiler_overhead():
    from repro.sim.compiled import compiled_source

    # Disabled bound: structural, not statistical.  The generated
    # source must contain the single build-time _PROF test and nothing
    # else profiler-shaped -- no wrappers exist to cost anything.
    source = compiled_source(build_compiled().sim)
    assert source.count("_PROF") == 2, (  # build test, install call
        "profiler hook grew beyond the single build-time branch"
    )

    off_s, noc_off = best_of(lambda: run_compiled(None))
    prof = KernelProfiler(sample_every=64)
    on_s, noc_on = best_of(lambda: run_compiled(prof))

    overhead = on_s / off_s
    doc = prof.report()
    rows = [
        f"S2b: compiled-kernel profiler (4x4 mesh, 16 cores, rate {RATE})",
        f"cycles simulated        : {CYCLES}",
        f"profiler off wall time  : {off_s:.3f} s",
        f"profiler on wall time   : {on_s:.3f} s",
        f"enabled overhead        : {overhead:.2f}x (target <=1.10)",
        f"thunk calls counted     : {prof.total_calls}",
        f"est. kernel seconds     : {doc['total_est_seconds']:.4f}",
        f"codegen lanes profiled  : {len(doc['lanes'])}",
    ]
    print("\n".join(rows))

    # Sampling must observe, never perturb: bit-identical statistics.
    assert noc_on.stats_digest() == noc_off.stats_digest(), (
        "attaching the profiler changed compiled-kernel results"
    )
    assert prof.total_calls > 0, "profiler wrappers never ran"
    # The 10% target is measured and recorded above; the hard gate
    # leaves room for shared-runner timer noise on a ~100ms workload.
    assert overhead < 1.5, (
        f"profiler costs {overhead:.2f}x; sampled wrappers must stay cheap"
    )


STREAM_SPEC = CampaignSpec(
    builder=TopologyNocBuilder(
        mesh, (2, 2), n_initiators=2, n_targets=2,
        config=NocBuildConfig(
            ni_txn_timeout=300, ni_txn_retries=1, link_resync_timeout=40,
        ),
    ),
    windows=(FaultWindow("link.*", start=150, duration=500, error_rate=0.05),),
    rate=0.08, warmup_cycles=150, measure_cycles=1200, seed=3,
    label="s2-stream",
)
STREAM_REPLICAS = 3


def batch_event_streaming_overhead():
    assert _events.current_sink() is None, "a stray event sink is installed"

    def campaign():
        return run_campaign(STREAM_SPEC, STREAM_REPLICAS)

    # Streaming off (the default): min-of-rounds, then one more round
    # for the <5% self-consistency proxy (no hook-free build exists to
    # diff against; see the module docstring).
    off_s, _ = best_of(campaign)
    t0 = time.perf_counter()
    off_ref = campaign()
    off_again = time.perf_counter() - t0

    col = _events.install_sink(_events.EventCollector())
    try:
        on_s, on_ref = best_of(campaign)
    finally:
        _events.remove_sink(col)

    consistency = off_again / off_s
    overhead = on_s / off_s
    rows = [
        f"S2c: batch event streaming ({STREAM_REPLICAS} replica lanes)",
        f"streaming off wall time : {off_s:.3f} s",
        f"off re-run consistency  : {consistency:.2f}x (bound 1.05 + noise)",
        f"streaming on wall time  : {on_s:.3f} s",
        f"enabled overhead        : {overhead:.2f}x",
        f"events collected        : {len(col.records)}",
    ]
    print("\n".join(rows))

    # Streaming must observe, never perturb the campaign's numbers.
    assert on_ref.lane_metrics == off_ref.lane_metrics, (
        "installing an event sink changed replicated-campaign results"
    )
    assert any(r["event"] == "lane_batch" for r in col.records)
    # <5%-disabled bound, asserted as self-consistency with streaming
    # off (generous timer-noise allowance for sub-second rounds).
    assert consistency < 1.05 + 0.30, (
        f"streaming-off runs disagree by {consistency:.2f}x; the dormant "
        f"current_sink() test cannot explain that"
    )
    assert overhead < 1.5, (
        f"event streaming costs {overhead:.2f}x on a replicated campaign"
    )


def main(runner):
    telemetry_overhead()
    compiled_profiler_overhead()
    batch_event_streaming_overhead()
