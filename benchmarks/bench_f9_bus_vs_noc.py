"""F9 -- Motivation: shared buses do not scale; NoCs do.

The paper's motivation section argues that bus architectures (in-order
completion, no outstanding transactions, arbitration overhead) cannot
keep up as core counts grow.  We run the *same* OCP masters and memory
slaves on the AHB-like shared bus and on a 2D-mesh xpipes NoC, sweeping
the number of masters, and report mean transaction latency.

Shape claims: at 2 masters the bus is competitive (NoC pays its
packetization overhead); as masters multiply, bus latency blows up
roughly linearly with master count while the NoC degrades gently --
the curves cross and the gap widens.
"""

from benchmarks._common import emit

from repro.bus import SharedBus
from repro.network.noc import Noc
from repro.network.topology import attach_round_robin, mesh
from repro.network.traffic import UniformRandomTraffic

TXNS = 40
RATE = 0.04
SWEEP = (1, 2, 4, 8)


def run_bus(n_masters):
    masters = [f"cpu{i}" for i in range(n_masters)]
    mems = ["mem0", "mem1", "mem2", "mem3"]
    bus = SharedBus(masters, mems)
    bus.populate(
        {m: UniformRandomTraffic(mems, RATE, seed=50 + i) for i, m in enumerate(masters)},
        max_transactions=TXNS,
    )
    bus.run_until_drained(max_cycles=2_000_000)
    return bus.aggregate_latency().mean()


def run_noc(n_masters):
    topo = mesh(3, 3)
    cpus, mems = attach_round_robin(topo, n_masters, 4)
    noc = Noc(topo)
    noc.populate(
        {c: UniformRandomTraffic(mems, RATE, seed=50 + i) for i, c in enumerate(cpus)},
        max_transactions=TXNS,
    )
    noc.run_until_drained(max_cycles=2_000_000)
    return noc.aggregate_latency().mean()


def rows(runner):
    lines = [
        f"F9: bus vs NoC mean latency (cycles), rate={RATE}/master, 4 slaves",
        f"{'masters':>8} {'shared bus':>11} {'xpipes NoC':>11} {'bus/noc':>8}",
    ]
    series = {}
    for n in SWEEP:
        bus_lat = run_bus(n)
        noc_lat = run_noc(n)
        series[n] = (bus_lat, noc_lat)
        lines.append(
            f"{n:>8} {bus_lat:>11.1f} {noc_lat:>11.1f} {bus_lat / noc_lat:>8.2f}"
        )
    return lines, (series,)


def check_shape(series):
    bus = [series[n][0] for n in SWEEP]
    noc = [series[n][1] for n in SWEEP]
    # Bus latency explodes with contention.
    assert bus[-1] > 2.5 * bus[0], "bus must saturate as masters multiply"
    # The NoC degrades far more gently.
    assert noc[-1] < 2.0 * noc[0], "NoC must scale gracefully"
    # At scale the NoC clearly wins.
    assert series[SWEEP[-1]][0] > 1.5 * series[SWEEP[-1]][1]
    # At 1 master the bus's simplicity wins or ties (packetization tax).
    assert series[1][0] <= series[1][1] * 1.2


def main(runner):
    lines, data = rows(runner)
    emit("f9_bus_vs_noc", lines)
    check_shape(*data)
