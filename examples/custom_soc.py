#!/usr/bin/env python3
"""A custom, heterogeneous NoC — the paper's core claim in action.

xpipes exists because "typical SoC applications are complex, highly
heterogeneous and communication intensive" and want *custom,
domain-specific* topologies rather than regular grids.  This example
hand-builds an irregular fabric shaped like a set-top-box SoC:

* a hub switch for the CPU complex,
* a streaming spine for the video pipeline,
* a stub switch for slow peripherals,

then runs the full safety tooling (wormhole deadlock analysis, the
buildability verdict on header fields and link bandwidth), simulates it
under self-checking traffic, and prints the synthesis estimate of exactly this irregular instance.
"""

from repro.core.config import NocBuildConfig
from repro.core.routing import RouteSet, violations
from repro.flow.bandwidth import demand_routes, route_loads
from repro.flow.taskgraph import CoreGraph, CoreSpec
from repro.network import Noc, check_deadlock_freedom
from repro.network.scoreboard import (
    add_checked_masters,
    assert_all_clean,
    private_stripe_patterns,
)
from repro.network.topology import Topology
from repro.synth import synthesize_noc


def build_soc() -> Topology:
    topo = Topology("settop_soc")
    # Irregular fabric: hub + video spine + peripheral stub.
    for sw in ("hub", "vid0", "vid1", "per"):
        topo.add_switch(sw)
    topo.connect("hub", "vid0")
    topo.connect("vid0", "vid1")
    topo.connect("hub", "per")
    topo.connect("hub", "vid1")  # shortcut for the CPU's frame access

    # Heterogeneous cores.
    attach = [
        ("cpu", True, "hub"),
        ("gpu", True, "vid0"),
        ("vdec", True, "vid1"),
        ("dma", True, "per"),
        ("ddr", False, "hub"),
        ("sram_vid", False, "vid0"),
        ("frame_buf", False, "vid1"),
        ("flash", False, "per"),
        ("uart", False, "per"),
    ]
    for name, is_init, sw in attach:
        (topo.add_initiator if is_init else topo.add_target)(name)
        topo.attach(name, sw)
    return topo


def main() -> None:
    topo = build_soc()
    print(f"fabric: {topo}")
    for sw in topo.switches:
        print(f"  {sw:<5} radix {topo.radix_of(sw)}: {', '.join(topo.ports_of(sw))}")

    # -- design-time safety checks -------------------------------------------
    deadlock = check_deadlock_freedom(topo)
    print(f"\ndeadlock analysis: {deadlock.describe()}")
    assert deadlock.is_deadlock_free

    demands = CoreGraph("settop", [
        CoreSpec(n, i) for n, i, _ in [
            ("cpu", True, 0), ("gpu", True, 0), ("vdec", True, 0),
            ("dma", True, 0), ("ddr", False, 0), ("sram_vid", False, 0),
            ("frame_buf", False, 0), ("flash", False, 0), ("uart", False, 0),
        ]
    ])
    demands.add_demand("vdec", "frame_buf", 200.0)
    demands.add_demand("gpu", "sram_vid", 150.0)
    demands.add_demand("cpu", "ddr", 120.0)
    demands.add_demand("dma", "flash", 20.0)
    demands.add_demand("frame_buf", "gpu", 90.0)
    config = NocBuildConfig()
    routes = RouteSet(topo)
    found = violations(routes, config, route_loads(demand_routes(routes, demands), config.params))
    print(f"buildability (header fields, bandwidth): {'OK' if not found else 'REFUSED'}")
    for violation in found:
        print(f"  {violation.message}")

    # -- simulate with a self-checking scoreboard ----------------------------
    noc = Noc(topo, config)
    cpus = topo.initiators
    mems = topo.targets
    patterns = private_stripe_patterns(cpus, mems, rate=0.06, seed=4)
    masters = add_checked_masters(noc, patterns, max_transactions=40)
    for m in mems:
        noc.add_memory_slave(m, wait_states=1)
    cycles = noc.run_until_drained(max_cycles=2_000_000)
    assert_all_clean(masters)
    lat = noc.aggregate_latency()
    checked = sum(m.words_checked for m in masters.values())
    print(f"\nsimulated {cycles} cycles: {noc.total_completed()} transactions, "
          f"mean latency {lat.mean():.1f} cycles")
    print(f"scoreboard verified {checked} read words, zero mismatches")
    print(f"pure network latency: {noc.network_latency().mean():.1f} cycles")

    # -- price this exact irregular instance ---------------------------------
    report = synthesize_noc(topo, target_freq_mhz=1000)
    print(f"\nsynthesis estimate @1 GHz: {report.total_area_mm2:.3f} mm2, "
          f"{report.total_power_mw:.0f} mW")
    for c in report.by_kind("switch"):
        print(f"  {c.name:<5} {c.label:<4} {c.area_mm2:.4f} mm2, "
              f"fmax {c.max_freq_mhz:.0f} MHz")


if __name__ == "__main__":
    main()
