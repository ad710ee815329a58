"""Property-based tests for idle-span exactness.

The generated loop crosses a cycle with nothing awake and no wire hot
in a spin that performs only the masters' gate draws and accounts the
crossed cycles arithmetically (``repro.sim.compiled._generate``).  The
claim is stated against the two per-cycle machines: at *every* run
boundary -- however the horizon is cut into ``run()`` calls, chunks of
one cycle included -- the collapsing loop leaves exactly what
``"interpreted"`` leaves (statistics, cycle, every master's RNG state,
the injector's window counters), and exactly the tick counters the
same generated program counts when a no-op watcher forces it to step
per cycle.  Sparse rates and bounded episodes make almost every cycle
an idle one; fault windows put always-lane events inside the spans,
and on the run boundaries themselves.
"""

from hypothesis import given, settings, strategies as st

from repro.faults import FaultInjector, FaultWindow
from repro.network.noc import Noc, NocBuildConfig
from repro.network.topology import attach_round_robin, mesh
from repro.network.traffic import UniformRandomTraffic

CHUNKS = (1, 1, 2, 7, 40, 333, 1000, 2500)
LINKS = ("link.sw_0_0.p*", "link.*")


@st.composite
def scenario(draw):
    n_cpus = draw(st.integers(min_value=1, max_value=3))
    rate = draw(st.sampled_from([0.0005, 0.002, 0.01]))
    max_transactions = draw(st.sampled_from([None, 1, 2, 3, 4]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    chunks = draw(st.lists(st.sampled_from(CHUNKS), min_size=3, max_size=9))
    boundaries = [sum(chunks[:i]) for i in range(len(chunks))]
    windows = tuple(
        FaultWindow(
            draw(st.sampled_from(LINKS)),
            # anywhere, or exactly on a run boundary (cycle 0 included)
            start=draw(st.one_of(
                st.integers(min_value=0, max_value=sum(chunks)),
                st.sampled_from(boundaries),
            )),
            duration=draw(st.integers(min_value=1, max_value=400)),
            error_rate=0.2,
        )
        for _ in range(draw(st.integers(min_value=0, max_value=2)))
    )
    return n_cpus, rate, max_transactions, seed, chunks, windows


def _build(params, kernel, watched=False):
    n_cpus, rate, max_transactions, seed, _, windows = params
    topo = mesh(2, 2)
    cpus, mems = attach_round_robin(topo, n_cpus, 2)
    noc = Noc(topo, NocBuildConfig(kernel=kernel))
    # No windows, no injector: the fast loop.  With one, its link
    # probes put every run on the observed loop.
    noc.injector = FaultInjector(noc, windows) if windows else None
    noc.populate(
        {
            c: UniformRandomTraffic(mems, rate, seed=seed + 31 * i)
            for i, c in enumerate(cpus)
        },
        max_transactions=max_transactions,
    )
    if watched:
        noc.sim.add_watcher(lambda cycle: None)
    return noc


def _state(noc):
    inj = noc.injector
    return (
        noc.stats_digest(),
        noc.sim.cycle,
        [noc.masters[name].pattern._rng.getstate() for name in sorted(noc.masters)],
        None if inj is None else (inj.windows_opened, inj.windows_closed),
    )


@settings(max_examples=15, deadline=None)
@given(scenario())
def test_every_run_boundary_matches_the_per_cycle_machines(params):
    compiled = _build(params, "compiled")
    interpreted = _build(params, "interpreted")
    watched = _build(params, "compiled", watched=True)
    assert compiled.sim.compile().idle_spans == "collapse"
    for chunk in params[4]:
        for noc in (compiled, interpreted, watched):
            noc.run(chunk)
        assert _state(compiled) == _state(interpreted)
        assert _state(watched) == _state(interpreted)
        assert compiled.sim.ticks_executed == watched.sim.ticks_executed
        assert compiled.sim.ticks_skipped == watched.sim.ticks_skipped
