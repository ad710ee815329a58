"""Property-based tests for replica-lane equivalence.

The batching contract (docs/BATCHING.md) is a universally-quantified
claim: for *any* workload and *any* lane index k, lane k of an
N-replica batch is bit-identical to a scalar compiled run of a network
built from scratch with every traffic and link seed offset by
``k * seed_stride`` -- including while fault windows are open, which is
when link RNG streams and retransmission machinery actually diverge
between seeds, and including bounded workloads where the generated
loop's idle-span collapse is active.
"""

from hypothesis import given, settings, strategies as st

from repro.faults import FaultInjector, FaultWindow
from repro.network.noc import Noc, NocBuildConfig
from repro.network.topology import attach_round_robin, mesh
from repro.network.traffic import UniformRandomTraffic
from repro.sim.batch import SEED_STRIDE, BatchSimulator

CORNER = "link.sw_0_0.p*"


@st.composite
def scenario(draw):
    rows = draw(st.integers(min_value=1, max_value=2))
    cols = draw(st.integers(min_value=2, max_value=2))
    rate = draw(st.sampled_from([0.01, 0.05, 0.2]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    cycles = draw(st.integers(min_value=300, max_value=600))
    # An open fault window overlapping the run (sometimes the whole of
    # it), corrupting everything leaving the corner switch.
    fault_start = draw(st.integers(min_value=0, max_value=150))
    fault_duration = draw(st.integers(min_value=100, max_value=600))
    error_rate = draw(st.sampled_from([0.05, 0.2]))
    # None = open-ended traffic; small caps leave a quiet tail with no
    # master armed, which the loop crosses in O(1).
    max_transactions = draw(st.sampled_from([None, 1, 3]))
    replicas = draw(st.integers(min_value=2, max_value=4))
    lane = draw(st.integers(min_value=0, max_value=replicas - 1))
    return (rows, cols, rate, seed, cycles, fault_start, fault_duration,
            error_rate, max_transactions, replicas, lane)


def _build(params, lane):
    (rows, cols, rate, seed, cycles, fault_start, fault_duration,
     error_rate, max_transactions, *_ ) = params
    topo = mesh(rows, cols)
    cpus, mems = attach_round_robin(topo, 2, 2)
    noc = Noc(topo, NocBuildConfig(kernel="compiled"))
    FaultInjector(
        noc,
        (FaultWindow(CORNER, start=fault_start, duration=fault_duration,
                     error_rate=error_rate),),
    )
    off = lane * SEED_STRIDE
    noc.populate(
        {
            c: UniformRandomTraffic(mems, rate, seed=seed + 31 * i + off)
            for i, c in enumerate(cpus)
        },
        max_transactions=max_transactions,
    )
    for link in noc.links:
        link._seed += off
    noc.sim.reset()  # links re-draw their RNGs from the offset seeds
    return noc


@settings(max_examples=10, deadline=None)
@given(scenario())
def test_any_lane_matches_a_scalar_rebuild(params):
    cycles, replicas, lane = params[4], params[9], params[10]

    batch = BatchSimulator(_build(params, lane=0), replicas)
    result = batch.run_lanes(
        cycles,
        lambda noc, k: {"completed": float(noc.total_completed())},
        digest=True,
    )

    scalar = _build(params, lane=lane)
    scalar.sim.compile()
    scalar.run(cycles)

    assert result.digests[lane] == scalar.stats_digest(), (
        f"lane {lane} of a {replicas}-replica batch diverged from the "
        f"scalar rebuild with the same seeds"
    )
