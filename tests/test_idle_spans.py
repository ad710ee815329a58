"""Edges of the generated loop's idle-span collapse.

The property suite (``tests/property/test_idle_span_props.py``) states
the contract over random workloads; these pin the named edges: always-
lane events at cycle 0 and exactly on a run boundary, two masters
whose draws pass in the same cycle, a master parked at
``max_outstanding``, the three ways the block is withheld (a component
with no ``idle_until``, a probed one, a watcher), and the header line
that says which applies.
"""

import pytest

from repro.faults import FaultInjector, FaultWindow
from repro.network.noc import Noc, NocBuildConfig
from repro.network.topology import attach_round_robin, mesh
from repro.network.traffic import UniformRandomTraffic
from repro.sim.compiled import compiled_source
from repro.sim.component import Component
from repro.telemetry.profile import KernelProfiler

CORNER = "link.sw_0_0.p*"


def build(kernel="compiled", windows=None, rate=0.002, seed=0,
          max_transactions=2, max_outstanding=4):
    topo = mesh(2, 2)
    cpus, mems = attach_round_robin(topo, 2, 2)
    noc = Noc(topo, NocBuildConfig(kernel=kernel))
    noc.injector = None if windows is None else FaultInjector(noc, windows)
    noc.populate(
        {
            c: UniformRandomTraffic(mems, rate, seed=seed + 31 * i)
            for i, c in enumerate(cpus)
        },
        max_transactions=max_transactions, max_outstanding=max_outstanding,
    )
    return noc


def state(noc):
    inj = noc.injector
    return (
        noc.stats_digest(),
        [noc.masters[n].pattern._rng.getstate() for n in sorted(noc.masters)],
        None if inj is None else (
            inj.windows_opened, inj.windows_closed,
            sorted(l.name for l in noc.links if l.fault_active),
        ),
    )


def lockstep(chunks, **kw):
    """Run ``"compiled"`` and ``"interpreted"`` builds through the same
    ``run()`` chunks, comparing at every boundary."""
    compiled, reference = build("compiled", **kw), build("interpreted", **kw)
    assert compiled.sim.compile().idle_spans == "collapse"
    for chunk in chunks:
        compiled.run(chunk)
        reference.run(chunk)
        assert state(compiled) == state(reference), f"after {compiled.sim.cycle}"
    return compiled


class TestSpanEdges:
    def test_windows_at_cycle_zero_and_on_a_run_boundary(self):
        windows = (
            FaultWindow(CORNER, start=0, duration=500, error_rate=0.2),
            FaultWindow("link.sw_1_1.p*", start=500, duration=1000, mode="dead"),
        )
        noc = lockstep([1, 499, 1, 999, 1, 3000], windows=windows)
        assert noc.injector.done

    def test_two_masters_pass_their_draws_in_the_same_cycle(self):
        # Seed 5: both first transactions issue in cycle 6, out of an
        # idle network -- the spin ends on cpu0's draw and cpu1 must
        # still draw (and pass) for that same cycle.
        kw = dict(rate=0.05, seed=5, max_transactions=1)
        noc = lockstep([6, 1, 200], **kw)
        probe = build("interpreted", **kw)
        probe.run(6)
        assert [m.issued for m in probe.masters.values()] == [0, 0]
        probe.run(1)
        assert [m.issued for m in probe.masters.values()] == [1, 1]
        assert noc.total_completed() == 2

    def test_a_master_parked_at_max_outstanding_draws_nothing(self):
        # Every link dead from cycle 0: each master issues once, is
        # never answered, and sits at its one-transaction limit while
        # the network goes quiet around it.
        windows = (FaultWindow("link.*", start=0, duration=10**6, mode="dead"),)
        noc = lockstep(
            [300, 1, 5000], windows=windows, rate=0.05, max_transactions=3,
            max_outstanding=1,
        )
        assert [m.issued for m in noc.masters.values()] == [1, 1]
        assert noc.total_completed() == 0

    def test_a_scalar_run_collapses_its_own_tail(self):
        # The always-lane thunk is called on cycles the loop steps, so
        # its call count shows the collapse without timing anything.
        noc = build(windows=(FaultWindow(CORNER, start=100, duration=50),))
        profiler = KernelProfiler()
        noc.sim.set_profiler(profiler)
        noc.run(50_000)
        assert noc.total_completed() == 4
        calls = {c["name"]: c["calls"] for c in profiler.report()["components"]}
        assert calls["faults"] < 5000


class Ticker(Component):
    """An always-lane component (no quiescence contract)."""

    def __init__(self, name="ticker"):
        super().__init__(name)
        self.seen = []

    def tick(self, cycle):
        self.seen.append(cycle)


class TestSpanWithheld:
    def test_no_idle_until_means_no_spin_and_a_tick_per_cycle(self):
        noc = build()
        ticker = noc.sim.add(Ticker())
        source = compiled_source(noc.sim)
        assert (
            "# idle spans: per-cycle (blocked by 'ticker': no idle_until)\n"
            in source
        )
        assert "lim" not in source and "while cyc < end" not in source
        noc.run(700)
        noc.run(1)
        assert ticker.seen == list(range(701))
        assert "blocked by 'ticker': no idle_until" in repr(noc.sim.compile())

    def test_a_probed_injector_means_no_spin_and_a_probe_call_per_cycle(self):
        noc = build(windows=(FaultWindow(CORNER, start=100, duration=50),))
        seen = []
        noc.sim.add_probe(noc.injector, seen.append)
        source = compiled_source(noc.sim)
        assert "# idle spans: per-cycle (blocked by 'faults': probed)\n" in source
        assert "lim" not in source
        noc.run(700)
        assert seen == list(range(700))

    def test_first_blocker_in_scheduling_order_is_named(self):
        noc = build(windows=())
        noc.sim.add_probe(noc.injector, lambda cycle: None)
        noc.sim.add(Ticker())
        assert noc.sim.compile().idle_spans == (
            "per-cycle (blocked by 'faults': probed)"
        )

    def test_a_watcher_is_called_once_per_cycle(self):
        # Watchers are not structural: the block is emitted and steps
        # aside at run time.
        noc = build(windows=(FaultWindow(CORNER, start=100, duration=50),))
        assert "# idle spans: collapse\n" in compiled_source(noc.sim)
        seen = []
        noc.sim.add_watcher(seen.append)
        noc.run(2000)
        noc.run(1)
        assert seen == list(range(2001))

    @pytest.mark.parametrize("kernel", ["compiled", "fast"])
    def test_collapse_is_the_default_and_repr_says_so(self, kernel):
        noc = build(kernel, windows=())
        program = noc.sim._ensure_program()
        assert program.idle_spans == "collapse"
        assert repr(program).endswith("idle spans: collapse)")
        assert "# idle spans: collapse\n" in program.source
