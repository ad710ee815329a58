"""Ablation A6 -- energy per transaction across topologies.

Energy is the third axis of the paper's design space (the synthesis
figures report power).  Here the measured activity of identical
workloads on different fabrics feeds the energy model: fabrics with
shorter average paths move fewer flit-hops per transaction and burn
less dynamic energy, but may pay in bigger (leakier, hotter) switches.

Shape claims: dynamic energy per transaction tracks mean hop count
(star < mesh for a centralized workload); the dynamic split is
dominated by switches; leakage grows with total instantiated area.
"""

from benchmarks._common import emit

from repro.network.noc import Noc
from repro.network.topology import attach_round_robin, mesh, star
from repro.network.traffic import UniformRandomTraffic
from repro.synth import measure_noc_energy

TXNS = 40


def run_fabric(factory, *args):
    topo = factory(*args)
    cpus, mems = attach_round_robin(topo, 3, 3)
    noc = Noc(topo)
    noc.populate(
        {c: UniformRandomTraffic(mems, 0.08, seed=31 + i) for i, c in enumerate(cpus)},
        max_transactions=TXNS,
    )
    noc.run_until_drained(max_cycles=2_000_000)
    report = measure_noc_energy(noc)
    hops = noc.total_flits_carried() / max(noc.total_completed(), 1)
    return report, hops


def rows(runner):
    results = {}
    for name, factory, args in (
        ("star4", star, (4,)),
        ("mesh3x3", mesh, (3, 3)),
    ):
        results[name] = run_fabric(factory, *args)
    lines = [
        f"A6: energy per transaction, identical workloads ({3 * TXNS} txns)",
        f"{'fabric':<9} {'dyn nJ':>8} {'leak nJ':>8} {'pJ/txn':>8} "
        f"{'flit-hops/txn':>14}",
    ]
    for name, (report, hops) in results.items():
        lines.append(
            f"{name:<9} {report.total_dynamic_pj / 1000:>8.2f} "
            f"{report.leakage_pj / 1000:>8.2f} {report.pj_per_transaction:>8.1f} "
            f"{hops:>14.1f}"
        )
    return lines, (results,)


def check_shape(results):
    star_rep, star_hops = results["star4"]
    mesh_rep, mesh_hops = results["mesh3x3"]
    # The star's shorter paths move fewer flit-hops...
    assert star_hops < mesh_hops
    # ...and burn less dynamic energy per transaction.
    star_dyn = star_rep.total_dynamic_pj / star_rep.completed_transactions
    mesh_dyn = mesh_rep.total_dynamic_pj / mesh_rep.completed_transactions
    assert star_dyn < mesh_dyn
    # Switches dominate the dynamic split on both fabrics.
    for rep, _ in results.values():
        assert rep.dynamic_pj["switch"] > rep.dynamic_pj["link"]
    # The 9-switch mesh leaks more than the 5-switch star over the
    # same transaction count (more silicon, and it also runs longer).
    assert mesh_rep.leakage_pj / mesh_rep.cycles > 0.8 * (
        star_rep.leakage_pj / star_rep.cycles
    )


def main(runner):
    lines, data = rows(runner)
    emit("a6_energy", lines)
    check_shape(*data)
