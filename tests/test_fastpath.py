"""The activity scheduler: differential equivalence + kernel behaviour.

The kernel's activity-tracked scheduling (see ``docs/PERFORMANCE.md``)
must be invisible: any network, any seed, any cycle count produces
byte-identical statistics whether components are scheduled by activity
(the generated loop, with or without specialized lanes) or ticked
unconditionally.  The differential tests here prove it with
the strongest observer available -- self-checking scoreboard traffic
over real NoCs -- and the unit tests pin the kernel-level contract
(wake on wire activity, wake on request, skip accounting, the
``run_until`` error paths).
"""

import hashlib

import pytest

from repro.network.experiments import TopologyNocBuilder, verify_fast_path
from repro.network.noc import NocBuildConfig
from repro.network.scoreboard import (
    add_checked_masters,
    assert_all_clean,
    private_stripe_patterns,
)
from repro.network.topology import mesh, ring
from repro.sim.component import Component
from repro.sim.kernel import SimulationError, Simulator


def scoreboard_digest(masters) -> str:
    """One sha256 over every checked master's scoreboard, sorted by name."""
    lines = [f"{name} {masters[name].digest()}" for name in sorted(masters)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Differential tests: scheduled loop vs full tick on real networks.
# ---------------------------------------------------------------------------

TOPOLOGIES = [
    pytest.param((mesh, (3, 3)), id="mesh3x3"),
    pytest.param((ring, (4,)), id="ring4"),
]


def _run_checked(factory, args, seed, kernel, cycles=1000):
    """A scoreboard-checked run; returns (stats digest, scoreboard digest,
    completed count)."""
    noc = TopologyNocBuilder(
        factory, args, config=NocBuildConfig(kernel=kernel)
    )()
    initiators = noc.topology.initiators
    patterns = private_stripe_patterns(
        initiators, noc.topology.targets, rate=0.1, seed=seed
    )
    masters = add_checked_masters(noc, patterns)
    for t in noc.topology.targets:
        noc.add_memory_slave(t)
    noc.run(cycles)
    assert_all_clean(masters)
    return noc.stats_digest(), scoreboard_digest(masters), noc.total_completed()


@pytest.mark.parametrize("topo", TOPOLOGIES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_differential_digests(topo, seed):
    factory, args = topo
    full = _run_checked(factory, args, seed, "interpreted")
    assert full[2] > 0, "the workload must actually complete transactions"
    for kernel in ("fast", "compiled"):
        got = _run_checked(factory, args, seed, kernel)
        assert got[0] == full[0], f"{kernel}: stats digests must be byte-identical"
        assert got[1] == full[1], f"{kernel}: scoreboard digests must be byte-identical"


def test_verify_fast_path_smoke():
    digest = verify_fast_path(
        TopologyNocBuilder(mesh, (2, 2), n_initiators=2, n_targets=2),
        cycles=400,
        rate=0.05,
    )
    assert len(digest) == 64


def test_fast_path_actually_skips_work():
    noc = TopologyNocBuilder(mesh, (3, 3))()
    noc.populate(
        {c: _no_traffic() for c in noc.topology.initiators},
    )
    noc.run(200)
    sim = noc.sim
    assert sim.ticks_skipped > sim.ticks_executed, (
        "an idle NoC must sleep most of its components"
    )


def _no_traffic():
    from repro.network.traffic import UniformRandomTraffic

    return UniformRandomTraffic(["never"], rate=0.0, seed=0)


# ---------------------------------------------------------------------------
# Kernel-level contract.
# ---------------------------------------------------------------------------


class _Counter(Component):
    """Counts pulses on one wire; optionally self-schedules wakeups."""

    def __init__(self, name, wire, self_wake_at=None):
        super().__init__(name)
        self.inp = wire
        self.ticks = 0
        self.pulses = 0
        self.self_wake_at = self_wake_at

    def wake_inputs(self):
        return [self.inp]

    def is_quiescent(self):
        return True

    def tick(self, cycle):
        self.ticks += 1
        if self.inp.value is not None:
            self.pulses += 1
        if self.self_wake_at is not None and cycle < self.self_wake_at:
            self.request_wakeup()


def test_idle_component_is_skipped():
    sim = Simulator()
    c = sim.add(_Counter("c", sim.wire("w")))
    sim.run(50)
    assert c.ticks == 1  # the initial arming tick only
    assert sim.ticks_skipped == 49


def test_wire_activity_wakes_reader():
    sim = Simulator()
    w = sim.wire("w")
    c = sim.add(_Counter("c", w))
    sim.run(10)
    w.drive(7)
    sim.run(2)  # latch at end of t, read at t+1
    assert c.pulses == 1
    sim.run(20)
    assert c.pulses == 1  # decayed back to sleep


def test_request_wakeup_keeps_component_running():
    sim = Simulator()
    c = sim.add(_Counter("c", sim.wire("w"), self_wake_at=10))
    sim.run(30)
    # Ticked at 0..10 via self-wakeup (arming tick + requested ones),
    # then slept.
    assert c.ticks == 11
    assert sim.ticks_skipped == 30 - c.ticks


def test_full_tick_mode_ticks_everything():
    sim = Simulator(kernel="interpreted")
    c = sim.add(_Counter("c", sim.wire("w")))
    sim.run(25)
    assert c.ticks == 25
    assert sim.ticks_skipped == 0


def test_set_fast_path_mid_run_stays_correct():
    def build():
        sim = Simulator()
        w = sim.wire("w")
        return sim, w, sim.add(_Counter("c", w))

    sim, w, c = build()
    sim.run(5)
    sim.set_kernel("interpreted")
    w.drive(1)
    sim.run(2)
    sim.set_kernel("fast")
    w.drive(2)
    sim.run(2)
    sim.set_kernel("compiled")
    w.drive(3)
    sim.run(2)
    assert c.pulses == 3  # no pulse lost across mode switches


def test_foreign_wire_keeps_component_always_active():
    from repro.sim.channel import Wire

    sim = Simulator()
    foreign = Wire("foreign")  # not kernel-owned: no hot-list tracking
    c = sim.add(_Counter("c", foreign))
    sim.run(10)
    assert c.ticks == 10  # cannot sleep on a wire the kernel can't watch


def test_run_until_rejects_non_callable_predicate():
    sim = Simulator()
    with pytest.raises(SimulationError, match="callable predicate"):
        sim.run_until(True)  # a classic typo: passing the result


def test_run_until_timeout_reports_stop_cycle():
    sim = Simulator()
    sim.run(3)
    with pytest.raises(SimulationError, match="stopped at cycle 8"):
        sim.run_until(lambda: False, max_cycles=5)
