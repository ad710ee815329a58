"""Property-based tests for scheduler-mode equivalence.

The three kernels (interpreted, fast, compiled) and the checkpoint
layer promise the same thing from different angles: one cycle-accurate
machine, many execution strategies.  On any small mesh, under any
uniform random workload -- light or contended, with or without link
errors, bare or watched by a probe monitor, a watchdog or a live
lifecycle tracer (each of which moves components onto different lanes
of the generated loop) -- all three kernels must produce byte-identical
statistics and show the observer the same thing, and
snapshotting mid-run under one kernel then restoring into a simulator
running *another* kernel must land on the very same digest.  Contended
rates are load-bearing here: arbitration, NACK recovery and wormhole
blocking only execute under pressure, and a compiled-kernel arbitration
bug once survived every light-load test in the suite.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import LinkConfig
from repro.faults import ProgressWatchdog
from repro.network.monitors import NetworkMonitor
from repro.network.noc import Noc, NocBuildConfig
from repro.network.topology import attach_round_robin, mesh
from repro.network.traffic import UniformRandomTraffic
from repro.telemetry.lifecycle import LifecycleCollector, enable_lifecycle

KERNELS = ("interpreted", "fast", "compiled")
OBSERVERS = ("none", "monitor", "watchdog", "tracer")


@st.composite
def scenario(draw):
    rows = draw(st.integers(min_value=1, max_value=2))
    cols = draw(st.integers(min_value=2, max_value=3))
    n_cpus = draw(st.integers(min_value=1, max_value=3))
    n_mems = draw(st.integers(min_value=1, max_value=2))
    rate = draw(st.sampled_from([0.02, 0.1, 0.4]))
    error_rate = draw(st.sampled_from([0.0, 0.0, 0.02]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    cycles = draw(st.integers(min_value=200, max_value=400))
    snap_at = draw(st.integers(min_value=50, max_value=cycles - 50))
    src = draw(st.sampled_from(KERNELS))
    dst = draw(st.sampled_from(KERNELS))
    observer = draw(st.sampled_from(OBSERVERS))
    return (rows, cols, n_cpus, n_mems, rate, error_rate, seed, cycles,
            snap_at, src, dst, observer)


def _build(params, kernel):
    """The scenario's NoC under ``kernel``, with ``noc.observed()``
    returning what the drawn observer saw (kernel-independent)."""
    rows, cols, n_cpus, n_mems, rate, error_rate, seed, *_, observer = params
    topo = mesh(rows, cols)
    cpus, mems = attach_round_robin(topo, n_cpus, n_mems)
    noc = Noc(topo, NocBuildConfig(
        link=LinkConfig(error_rate=error_rate), kernel=kernel,
    ))
    noc.populate(
        {
            c: UniformRandomTraffic(mems, rate, seed=seed + 31 * i)
            for i, c in enumerate(cpus)
        }
    )
    noc.observed = lambda: None
    if observer == "monitor":
        monitor = NetworkMonitor(noc)

        def observed():
            monitor.flush()
            return sorted(
                (name, q.samples, q.total, q.peak)
                for name, q in monitor.queue_stats.items()
            )

        noc.observed = observed
    elif observer == "watchdog":
        watchdog = ProgressWatchdog(noc, horizon=400)  # checks, never trips
        noc.observed = lambda: (watchdog.checks, watchdog.trips)
    elif observer == "tracer":
        collector = LifecycleCollector()
        noc.sim.tracer = collector
        enable_lifecycle(noc)
        # Field values carry process-global packet ids; the event
        # skeleton is the kernel-independent part.
        noc.observed = lambda: [e[:3] for e in collector.events]
    return noc


@settings(max_examples=12, deadline=None)
@given(scenario())
def test_kernels_and_checkpoints_agree(params):
    cycles, snap_at, src, dst = params[7], params[8], params[9], params[10]

    digests = {}
    seen = {}
    for kernel in KERNELS:
        noc = _build(params, kernel)
        noc.run(cycles)
        digests[kernel] = noc.stats_digest()
        seen[kernel] = noc.observed()
    assert len(set(digests.values())) == 1, digests
    assert seen["fast"] == seen["compiled"] == seen["interpreted"]

    # Mid-run snapshot under ``src``, restored into a ``dst``-kernel
    # simulator, must converge on the same digest.
    donor = _build(params, src)
    donor.run(snap_at)
    snap = donor.sim.snapshot()
    assert snap.kernel == src

    restored = _build(params, dst)
    restored.sim.restore(snap)
    assert restored.sim.kernel == dst
    restored.run(cycles - snap_at)
    assert restored.stats_digest() == digests["interpreted"]
