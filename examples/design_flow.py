#!/usr/bin/env python3
"""The full paper design flow, application graph to generated NoC.

Walks every box of the paper's "NoC Synthesis Flow" figure:

  application task graph  -> core graph           (SunMap front end)
  mapping onto topologies -> topology selection   (quick estimations)
  floorplanning           -> link pipelining
  NoC specification       -> xpipesCompiler
  -> routing tables, SystemC-style synthesis view, runnable simulation

Run it to watch a multimedia SoC turn into a NoC.
"""

import os
import tempfile

from repro.compiler import (
    NocSpecification,
    generate_routing_tables,
    render_routing_tables,
    simulation_view,
    write_systemc,
)
from repro.flow import demo_multimedia_soc, floorplan_topology, select_topology
from repro.network.topology import mesh, ring, star
from repro.network.traffic import RateTableTraffic


def main() -> None:
    # -- 1. The application -------------------------------------------------
    task_graph, assignment, core_graph = demo_multimedia_soc()
    print("=== application ===")
    for src, dst, rate in task_graph.flows():
        print(f"  {src:<12} -> {dst:<12} {rate:6.1f} words/kcycle")
    print(f"folded onto cores: {len(core_graph.initiators)} initiators, "
          f"{len(core_graph.targets)} targets")

    # -- 2. Mapping + topology selection -------------------------------------
    print("\n=== topology selection (quick estimation loop) ===")
    candidates = [mesh(2, 2), mesh(2, 3), star(3), ring(4)]
    results = select_topology(core_graph, candidates, target_freq_mhz=1000, seed=2)
    for r in results:
        print("  " + r.row())
    best = results[0]
    print(f"selected: {best.name}")
    print("mapping:")
    for core, switch in sorted(best.mapping.items()):
        print(f"  {core:<8} -> {switch}")

    # -- 3. Buildability (header fields, link bandwidth) + floorplan ---------
    print(f"\n=== buildability ===")
    if best.feasible:
        print("  every route fits the header; all links within capacity margin")
    for violation in best.violations:
        print(f"  REFUSED: {violation.message}")

    plan = best.floorplan
    print(f"\n=== floorplan ===")
    print(f"  bounding box {plan.bounding_box_mm2():.1f} mm2, "
          f"total wirelength {plan.total_wirelength_mm:.1f} mm")
    print(f"  deepest link pipelining at 1 GHz: {plan.max_stages(1000)} stage(s)")

    # -- 4. xpipesCompiler ----------------------------------------------------
    spec = NocSpecification.from_topology(best.topology, name="multimedia_noc")
    print("\n=== routing tables (excerpt) ===")
    tables_text = render_routing_tables(generate_routing_tables(spec))
    print("\n".join(tables_text.splitlines()[:12]))

    out_dir = os.path.join(tempfile.gettempdir(), "xpipes_multimedia_noc")
    paths = write_systemc(spec, out_dir)
    print(f"\n=== synthesis view ===\ngenerated {len(paths)} files under {out_dir}:")
    for p in paths:
        print(f"  {os.path.basename(p)}")

    # -- 5. Simulation view under the application's own traffic ----------------
    print("\n=== simulation view under application traffic ===")
    noc = simulation_view(spec)
    for cpu in core_graph.initiators:
        demands = core_graph.initiator_demands(cpu)
        if not demands:
            continue
        rate = min(0.3, sum(demands.values()) / 1000.0)
        noc.add_traffic_master(
            cpu,
            RateTableTraffic(demands, total_rate=max(rate, 0.02), seed=hash(cpu) % 97),
            max_transactions=60,
        )
    for mem in core_graph.targets:
        noc.add_memory_slave(mem, wait_states=1)
    cycles = noc.run_until_drained(max_cycles=2_000_000)
    lat = noc.aggregate_latency()
    print(f"  {noc.total_completed()} transactions in {cycles} cycles, "
          f"mean latency {lat.mean():.1f} cycles")
    print(f"  estimator predicted {best.mean_cycles:.1f} cycles one-way "
          f"(round trip + memory explains the rest)")


if __name__ == "__main__":
    main()
