"""Property-based tests for scheduler-mode equivalence.

The three kernels (interpreted, fast, compiled) promise the same thing
from different angles: one cycle-accurate machine, many execution
strategies.  On any small mesh, under any
uniform random workload -- light or contended, with or without link
errors, bare or watched by a probe monitor, a watchdog or a live
lifecycle tracer (each of which moves components onto different lanes
of the generated loop) -- all three kernels must produce byte-identical
statistics and show the observer the same thing, and one instance
handed from one kernel to *another* mid-run (``set_kernel`` at a cycle
boundary) must land on the very same digest.  Contended
rates are load-bearing here: arbitration, NACK recovery and wormhole
blocking only execute under pressure, and a compiled-kernel arbitration
bug once survived every light-load test in the suite.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import ArbitrationPolicy, LinkConfig
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
def test_kernels_and_handoffs_agree(params):
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

    # One instance run ``snap_at`` cycles under ``src``, then handed to
    # ``dst`` for the rest, must converge on the same digest.
    handoff = _build(params, src)
    handoff.run(snap_at)
    handoff.sim.set_kernel(dst)
    handoff.run(cycles - snap_at)
    assert handoff.stats_digest() == digests["interpreted"]
    assert handoff.observed() == seen["interpreted"]


# -- protocol state, not just statistics -------------------------------------

def protocol_state(noc):
    """The link- and switch-level protocol registers ``stats_digest``
    does not hash.  Packet and transaction ids are left out by design:
    the drawer lane allocates them in a different intra-cycle order."""

    def rx(r):
        return (r._expected, r.accepted_flits, r.rejected_flits,
                r.corrupted_flits, r.out_of_order_flits)

    def tx(s):
        return (s._next_seqno, s._send_ptr, len(s._buffer), s.acks_seen,
                s.nacks_seen, s.nacks_ignored, s.rewinds, s.resyncs)

    state = {}
    for name, sw in noc.switches.items():
        state[name] = (
            [rx(r) for r in sw.receivers],
            [
                (p.locked_input, tx(p.sender),
                 [(f.ftype, f.seqno, f.index, f.route_offset) for f in p.queue])
                for p in sw.outputs
            ],
            list(sw._input_dest),
            [getattr(a, "_next", None) for a in sw._arbiters],
        )
    for name, ni in {**noc.initiator_nis, **noc.target_nis}.items():
        state[name] = (rx(ni.rx), tx(ni.tx.sender))
    return state


@st.composite
def contended_scenario(draw):
    return dict(
        cols=draw(st.integers(min_value=2, max_value=3)),
        n_cpus=draw(st.integers(min_value=2, max_value=4)),
        n_mems=draw(st.integers(min_value=1, max_value=2)),
        rate=draw(st.sampled_from([0.4, 0.8])),
        arbitration=draw(st.sampled_from(list(ArbitrationPolicy))),
        buffer_depth=draw(st.sampled_from([2, 3, 6])),
        stages=draw(st.sampled_from([1, 2, 3])),
        error_rate=draw(st.sampled_from([0.0, 0.02, 0.1])),
        resync=draw(st.sampled_from([None, 20])),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        slices=draw(st.lists(st.integers(min_value=40, max_value=120),
                             min_size=2, max_size=3)),
    )


@settings(max_examples=15, deadline=None)
@given(contended_scenario())
def test_kernels_agree_on_protocol_state_under_contention(p):
    # Past saturation most switch ticks see several active inputs, so
    # "compiled" spends them in the generated three-phase allocator and
    # the other two in ``Switch._input_stage``: every register either
    # writes must match after every slice, not only the hashed counters.
    seen = {}
    for kernel in KERNELS:
        topo = mesh(2, p["cols"])
        cpus, mems = attach_round_robin(topo, p["n_cpus"], p["n_mems"])
        noc = Noc(topo, NocBuildConfig(
            arbitration=p["arbitration"],
            buffer_depth=p["buffer_depth"],
            link=LinkConfig(stages=p["stages"], error_rate=p["error_rate"]),
            link_resync_timeout=p["resync"],
            kernel=kernel,
        ))
        noc.populate({
            c: UniformRandomTraffic(mems, p["rate"], seed=p["seed"] + 31 * i)
            for i, c in enumerate(cpus)
        })
        trail = []
        for cycles in p["slices"]:
            noc.run(cycles)
            trail.append((noc.stats_digest(), protocol_state(noc)))
        seen[kernel] = trail
    assert seen["compiled"] == seen["interpreted"]
    assert seen["fast"] == seen["interpreted"]
