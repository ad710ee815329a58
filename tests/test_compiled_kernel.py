"""The compiled tick kernel: differential equivalence + compile contract.

The codegen kernel (``docs/PERFORMANCE.md``, "Compiled kernel") must be
invisible: any network, any seed, any load -- including contended
regimes that exercise allocation conflicts, NACK recovery and wormhole
blocking -- produces statistics byte-identical to the interpreted loop
and the fast path.  The differential tests prove it on real NoCs (the
contended-rate case is load-bearing: a sticky arbitration bug once
survived every light-load test in the suite); the unit tests pin the
compile-time contract -- who gets a specialized lane, who is absorbed
by the ``generic``/``always`` lanes instead of failing, when programs go
stale, and that observers (probes, watchers, tracers) see exactly the
cycles the reference loop would have shown them.
"""

import pytest

from repro.faults.injector import FaultInjector, FaultWindow
from repro.network.experiments import (
    TopologyNocBuilder,
    verify_checkpoint,
    verify_fast_path,
)
from repro.network.noc import NocBuildConfig
from repro.network.topology import mesh, ring
from repro.network.traffic import UniformRandomTraffic
from repro.sim.compiled import compiled_source
from repro.sim.component import Component
from repro.sim.kernel import KERNEL_MODES, SimulationError, Simulator
from repro.sim.trace import NullTracer, TextTracer

THREE_WAY = ("compiled", "fast", "interpreted")


# ---------------------------------------------------------------------------
# Differential tests: compiled vs fast vs interpreted on real networks.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("topo", [
    pytest.param((mesh, (3, 3)), id="mesh3x3"),
    pytest.param((ring, (4,)), id="ring4"),
])
@pytest.mark.parametrize("rate", [0.02, 0.3], ids=["light", "contended"])
def test_three_way_digest_equivalence(topo, rate):
    factory, args = topo
    digest = verify_fast_path(
        TopologyNocBuilder(factory, args),
        cycles=700,
        rate=rate,
        kernels=THREE_WAY,
    )
    assert len(digest) == 64


def test_equivalence_with_open_fault_windows():
    # Error recovery under codegen: the window opens mid-run, corrupts
    # real traffic, and go-back-N must replay identically in all modes.
    window = FaultWindow("link.*", start=100, duration=300, error_rate=0.15)
    verify_fast_path(
        TopologyNocBuilder(mesh, (2, 2)),
        cycles=700,
        rate=0.1,
        attach=lambda noc: FaultInjector(noc, [window]),
        kernels=THREE_WAY,
    )


@pytest.mark.parametrize("kernel,restore_kernel", [
    ("compiled", "interpreted"),
    ("interpreted", "compiled"),
    ("fast", "compiled"),
    ("compiled", "fast"),
])
def test_cross_kernel_checkpoint_restore(kernel, restore_kernel):
    verify_checkpoint(
        TopologyNocBuilder(mesh, (2, 2)),
        snapshot_at=200,
        cycles=600,
        rate=0.1,
        kernel=kernel,
        restore_kernel=restore_kernel,
    )


def test_mesh_gets_specialized_lanes():
    noc = TopologyNocBuilder(mesh, (3, 3), n_initiators=4, n_targets=4)()
    noc.populate(
        {
            c: UniformRandomTraffic(noc.topology.targets, 0.05, seed=i)
            for i, c in enumerate(noc.topology.initiators)
        }
    )
    program = noc.sim.compile()
    assert program.lanes["switch"] == 9
    assert program.lanes["master"] == 4
    assert program.lanes["ni-initiator"] == 4
    assert program.lanes["ni-target"] == 4
    assert program.lanes["link"] > 0
    assert set(program.lane_of) == {c.name for c in noc.sim._components}


# ---------------------------------------------------------------------------
# The compile contract.
# ---------------------------------------------------------------------------


class _Pulse(Component):
    """Minimal well-behaved component: counts values on one wire."""

    def __init__(self, name, wire):
        super().__init__(name)
        self.inp = wire
        self.ticks = 0
        self.pulses = 0

    def wake_inputs(self):
        return [self.inp]

    def is_quiescent(self):
        return True

    def tick(self, cycle):
        self.ticks += 1
        if self.inp.value is not None:
            self.pulses += 1


class _NoContract(Component):
    """Opts out: no wake_inputs/is_quiescent, so it can never sleep."""

    def __init__(self, name):
        super().__init__(name)
        self.ticks = 0

    def tick(self, cycle):
        self.ticks += 1


def _tiny_sim(kernel="compiled"):
    sim = Simulator(kernel=kernel)
    w = sim.wire("w")
    c = sim.add(_Pulse("c", w))
    return sim, w, c


def test_no_contract_component_takes_the_always_lane():
    # No quiescence contract is not an opt-out: the component runs every
    # cycle under codegen, exactly as the reference loop runs it.
    sim, w, c = _tiny_sim()
    free = sim.add(_NoContract("free"))
    program = sim.compile()
    assert program.lane_of["free"] == "always"
    w.drive(5)
    sim.run(20)
    assert free.ticks == 20
    assert c.pulses == 1  # sleepy neighbor still wakes and sleeps


def test_dynamic_components_are_absorbed_by_lane_choice():
    # What the hand-written scheduler used to catch by being a second
    # loop: an instance-level ``tick`` (invisible to static lane
    # specialization) takes the late-binding generic lane, a component
    # watching a wire the kernel cannot see takes the always lane.
    from repro.sim.channel import Wire
    from repro.sim.compiled import compile_simulator

    def run(kernel):
        sim, w, c = _tiny_sim(kernel)
        w2 = sim.wire("w2")
        rogue = sim.add(_Pulse("rogue", w2))
        seen = []
        # Instance-level, installed before the first run.
        rogue.tick = lambda cyc: w2.value is not None and seen.append(cyc)
        foreign = sim.add(_Pulse("foreign", Wire("off-kernel")))
        w.drive(5)
        w2.drive(6)
        sim.run(10)
        return sim, (c.pulses, seen, rogue.ticks, foreign.ticks)

    _, want = run("interpreted")
    assert want == (1, [1], 0, 10)
    for kernel in ("fast", "compiled"):
        sim, got = run(kernel)
        assert got == want
        lane_of = compile_simulator(sim).lane_of
        assert lane_of["rogue"] == "generic"
        assert lane_of["foreign"] == "always"


def test_structural_mutation_recompiles():
    sim, w, c = _tiny_sim()
    first = sim.compile()
    sim.run(3)
    c2 = sim.add(_Pulse("c2", sim.wire("w2")))
    second = sim.compile()
    assert second is not first and second.rev > first.rev
    sim.run(3)
    assert sim.cycle == 6 and c2.ticks >= 1


def test_compiled_source_is_deterministic():
    a = compiled_source(_tiny_sim()[0])
    b = compiled_source(_tiny_sim()[0])
    assert a == b and "def run_cycles" in a


def _saturated_rig():
    """The ledger's ``sim_saturated`` network: 4x4 mesh, 8 + 8 cores."""
    noc = TopologyNocBuilder(mesh, (4, 4), n_initiators=8, n_targets=8)()
    noc.populate(
        {
            c: UniformRandomTraffic(noc.topology.targets, 0.4, seed=i)
            for i, c in enumerate(noc.topology.initiators)
        }
    )
    return noc


def test_switch_lane_never_leaves_generated_code():
    # Any number of active inputs is allocated inside ``_sw_NxM``; the
    # hand-written ``Switch._input_stage`` is not even bound.
    source = compiled_source(_saturated_rig().sim)
    assert "def _sw_" in source and "act == -2" in source
    assert "in_stage" not in source and "_input_stage" not in source


def test_identical_networks_share_one_code_object():
    from repro.sim import compiled
    from repro.telemetry.profile import KernelProfiler

    compiled._code_for.cache_clear()
    first, second = _saturated_rig(), _saturated_rig()
    first.sim.compile()
    second.sim.compile()
    info = compiled._code_for.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert info.maxsize is not None  # bounded
    # Shared text, private state: each program drives its own simulator.
    first.run(50)
    assert (first.sim.cycle, second.sim.cycle) == (50, 0)
    # A profiled compile reuses the code object too, but executes it in
    # its own namespace: its ``_PROF`` hook wraps only its own thunks.
    profiled = _saturated_rig()
    prof = KernelProfiler(sample_every=1)
    profiled.sim.set_profiler(prof)
    profiled.sim.compile()
    assert compiled._code_for.cache_info().hits == 2
    profiled.run(50)
    calls = prof.total_calls
    second.run(50)
    assert prof.installs == 1 and prof.total_calls == calls > 0
    assert first.stats_digest() == second.stats_digest() == profiled.stats_digest()


def test_set_kernel_validates_mode():
    sim = Simulator()
    with pytest.raises(SimulationError, match="set_kernel"):
        sim.set_kernel("vectorized")
    for mode in KERNEL_MODES:
        sim.set_kernel(mode)
        assert sim.kernel == mode


# ---------------------------------------------------------------------------
# Observers: probes, watchers, tracers see step()-identical cycles.
# ---------------------------------------------------------------------------


def _drive_schedule(sim, w):
    """Stimulus with gaps, so wake/sleep transitions are exercised."""
    sim.run(2)
    w.drive(1)
    sim.run(5)
    w.drive(2)
    sim.run(5)


def test_probes_are_cycle_exact():
    # Probes fire only on cycles their component executed; under the
    # interpreted loop that is every cycle, so the activity-aware
    # contract is fast-vs-compiled equivalence (tests/test_fastpath.py
    # pins the fast-path side of the contract).
    def observed(kernel):
        sim, w, c = _tiny_sim(kernel)
        seen = []
        sim.add_probe(c, lambda cyc: seen.append((cyc, c.pulses)))
        _drive_schedule(sim, w)
        return seen

    want = observed("fast")
    assert observed("compiled") == want
    assert any(pulses for _, pulses in want)
    assert len(want) < 12  # skipped cycles really are skipped


def test_watchers_are_cycle_exact():
    def observed(kernel):
        sim, w, c = _tiny_sim(kernel)
        seen = []
        sim.add_watcher(lambda cyc: seen.append((cyc, c.pulses)))
        _drive_schedule(sim, w)
        return seen

    want = observed("interpreted")
    assert len(want) == 12  # watchers run every cycle, in every mode
    assert observed("compiled") == want


def test_tracer_swap_mid_run_is_honored():
    # The program elaborated under NullTracer has specialized lanes that
    # elide trace callouts, so a swap must re-elaborate: all-generic
    # lanes under a live tracer (tracing cycle-exactly, like the
    # reference loop), specialized lanes again once it is swapped back.
    from repro.sim.snapshot import _global_id_state, _set_global_id_state

    ids = _global_id_state()

    def observed(kernel):
        # Flit reprs in trace fields carry process-global packet ids;
        # rewind the allocators so every run sees identical streams.
        _set_global_id_state(ids)
        noc = TopologyNocBuilder(mesh, (2, 2))()
        noc.sim.set_kernel(kernel)
        noc.populate(
            {
                c: UniformRandomTraffic(noc.topology.targets, 0.1, seed=5 + i)
                for i, c in enumerate(noc.topology.initiators)
            }
        )
        noc.run(100)
        tracer = TextTracer()
        noc.sim.tracer = tracer
        noc.run(200)
        if kernel == "compiled":
            assert "switch" not in noc.sim.compile().lanes
        noc.sim.tracer = NullTracer()
        noc.run(100)
        if kernel == "compiled":
            assert noc.sim.compile().lanes["switch"] == 4
        return tracer.events, noc.stats_digest()

    want = observed("interpreted")
    assert want[0], "the workload must actually produce trace events"
    assert observed("fast") == want
    assert observed("compiled") == want


def test_run_until_stride_under_compiled_kernel():
    sim, w, c = _tiny_sim()
    sim.compile()
    spent = sim.run_until(lambda: sim.cycle >= 900, stride=128)
    assert spent == sim.cycle == 1024  # predicate polled at stride marks
