"""Ablation A7 -- flat bus vs bridged bus vs NoC.

The paper's AMBA example is a *hierarchical* bus: a fast system bus
plus a peripheral bus behind a bridge.  Bridging is the classic
scalability patch -- and it makes the serialization worse for any
master that crosses the bridge, because the fast bus stalls for the
whole remote transaction.  This ablation runs the same masters and
slaves on a flat bus, a bridged platform, and the mesh NoC.

Shape claims: for bridge-crossing traffic, the bridged bus is slower
than the flat bus (the bridge adds latency and holds the fast bus);
the NoC beats both once several masters contend.
"""

from benchmarks._common import emit

from repro.bus import BridgedBus, SharedBus
from repro.network.noc import Noc
from repro.network.topology import attach_round_robin, mesh
from repro.network.traffic import UniformRandomTraffic

TXNS = 30
RATE = 0.05
N_MASTERS = 6
FAST = ["dram0", "dram1"]
SLOW = ["uart", "timer"]
ALL = FAST + SLOW


def patterns():
    return {
        f"cpu{i}": UniformRandomTraffic(ALL, RATE, seed=200 + i)
        for i in range(N_MASTERS)
    }


def run_flat():
    bus = SharedBus([f"cpu{i}" for i in range(N_MASTERS)], ALL)
    bus.populate(patterns(), max_transactions=TXNS)
    bus.run_until_drained(max_cycles=3_000_000)
    return bus.aggregate_latency().mean()


def run_bridged():
    bb = BridgedBus([f"cpu{i}" for i in range(N_MASTERS)], FAST, SLOW)
    bb.populate(patterns(), max_transactions=TXNS)
    bb.run_until_drained(max_cycles=3_000_000)
    return bb.aggregate_latency().mean()


def run_noc():
    topo = mesh(2, 3)
    cpus, mems = attach_round_robin(topo, N_MASTERS, len(ALL))
    noc = Noc(topo)
    # Same per-master behaviour; target names follow the mesh's map.
    noc.populate(
        {c: UniformRandomTraffic(mems, RATE, seed=200 + i)
         for i, c in enumerate(cpus)},
        max_transactions=TXNS,
    )
    noc.run_until_drained(max_cycles=3_000_000)
    return noc.aggregate_latency().mean()


def rows(runner):
    flat = run_flat()
    bridged = run_bridged()
    noc = run_noc()
    lines = [
        f"A7: interconnect generations, {N_MASTERS} masters, rate {RATE}",
        f"{'architecture':<16} {'mean latency':>13}",
        f"{'flat bus':<16} {flat:>13.1f}",
        f"{'bridged bus':<16} {bridged:>13.1f}",
        f"{'xpipes NoC':<16} {noc:>13.1f}",
    ]
    return lines, ((flat, bridged, noc),)


def check_shape(values):
    flat, bridged, noc = values
    # Bridging makes the shared-medium pathology worse, not better.
    assert bridged > flat
    # At this contention level the NoC beats both bus generations.
    assert noc < flat
    assert noc < bridged


def main(runner):
    lines, data = rows(runner)
    emit("a7_bus_hierarchies", lines)
    check_shape(*data)
