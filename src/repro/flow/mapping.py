"""Mapping cores onto a switch fabric.

SunMap's "mapping onto topologies" step: given a core communication
graph and a bare switch fabric, decide which switch each core's NI
attaches to, minimizing hop-weighted communication (demand x hop count
summed over all core pairs).  Two engines are provided: a fast greedy
constructor and a simulated-annealing refiner that starts from it.

A mapping is a plain ``{core name -> switch name}`` dict;
:func:`apply_mapping` turns the fabric + mapping into an attached
:class:`~repro.network.topology.Topology` ready for the compiler.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional

from repro.core.config import NocParameters
from repro.flow.bandwidth import demand_to_flit_rate
from repro.flow.taskgraph import CoreGraph
from repro.network.topology import Topology


def mapping_cost(
    core_graph: CoreGraph,
    fabric: Topology,
    mapping: Dict[str, str],
    hops: Optional[Dict[str, Dict[str, int]]] = None,
) -> float:
    """Hop-weighted communication cost of a mapping.

    Each demand pays ``rate * (hops between its switches + 1)``: the +1
    accounts for the NI injection/ejection hop so co-located cores are
    not free (they still cross their shared switch).
    """
    if hops is None:
        hops = fabric.hop_matrix()
    total = 0.0
    for src, dst, rate in core_graph.demands():
        total += rate * (hops[mapping[src]][mapping[dst]] + 1)
    return total


def slot_capacity(fabric: Topology, max_radix: int, cores: int = 0) -> Dict[str, int]:
    """NIs each switch can still take without exceeding ``max_radix``;
    a ``ValueError`` when they add up to fewer than ``cores``."""
    capacity = {s: max(0, max_radix - fabric.radix_of(s)) for s in fabric.switches}
    if sum(capacity.values()) < cores:
        raise ValueError(
            f"fabric has capacity for {sum(capacity.values())} NIs at "
            f"max_radix={max_radix}, need {cores}"
        )
    return capacity


def greedy_mapping(
    core_graph: CoreGraph,
    fabric: Topology,
    max_radix: int = 8,
) -> Dict[str, str]:
    """Place cores in descending demand order, each where it is cheapest.

    The heaviest-communicating core seeds the fabric's most central
    switch; every next core tries all switches with free capacity and
    takes the one minimizing its demand-weighted distance to already
    placed partners.
    """
    hops = fabric.hop_matrix()
    capacity = slot_capacity(fabric, max_radix, len(core_graph.cores))
    # Order cores by total attached demand, heaviest first.
    order = sorted(
        core_graph.cores,
        key=lambda c: -sum(
            core_graph.demand_between(c, o) for o in core_graph.cores if o != c
        ),
    )
    centrality = fabric.closeness() if len(fabric.switches) > 1 else {
        s: 1.0 for s in fabric.switches
    }
    mapping: Dict[str, str] = {}
    for core in order:
        best, best_cost = None, math.inf
        for sw in fabric.switches:
            if capacity[sw] <= 0:
                continue
            cost = sum(
                core_graph.demand_between(core, other) * (hops[sw][mapping[other]] + 1)
                for other in mapping
            )
            # Tie-break toward central switches for the seed core.
            cost -= 1e-6 * centrality.get(sw, 0.0)
            if cost < best_cost:
                best, best_cost = sw, cost
        assert best is not None
        mapping[core] = best
        capacity[best] -= 1
    return mapping


def bandwidth_penalty(
    core_graph: CoreGraph,
    fabric: Topology,
    mapping: Dict[str, str],
    params: NocParameters,
    hops: Optional[Dict[str, Dict[str, int]]] = None,
) -> float:
    """Overload pressure of a mapping, for bandwidth-aware annealing.

    A cheap proxy for the exact per-link routing of
    :mod:`repro.flow.bandwidth`: each demand's flit rate is charged to
    its whole path length, and the squared total penalizes
    concentrating traffic.  Zero when total pressure is comfortably
    below a one-flit-per-cycle-per-hop budget.
    """
    if hops is None:
        hops = fabric.hop_matrix()
    pressure = 0.0
    for src, dst, rate in core_graph.demands():
        flits = demand_to_flit_rate(rate, params)
        pressure += flits * (hops[mapping[src]][mapping[dst]] + 1)
    return _overload_penalty(pressure, len(fabric.edges))


def _overload_penalty(pressure: float, fabric_edges: int) -> float:
    utilization = pressure / max(2 * fabric_edges, 1)
    overload = max(0.0, utilization - 0.5)  # headroom margin
    return overload * overload


def anneal_mapping(
    core_graph: CoreGraph,
    fabric: Topology,
    initial: Optional[Dict[str, str]] = None,
    max_radix: int = 8,
    iterations: int = 2000,
    t_start: float = 10.0,
    t_end: float = 0.01,
    seed: int = 0,
    bandwidth_params: Optional[NocParameters] = None,
    bandwidth_weight: float = 1000.0,
) -> Dict[str, str]:
    """Refine a mapping by simulated annealing (swap / move neighbourhood).

    Moves relocate one core to a switch with free capacity or swap two
    cores; acceptance follows the Metropolis criterion with geometric
    cooling.  Deterministic for a given seed.

    When ``bandwidth_params`` is given, the objective adds
    ``bandwidth_weight x`` :func:`bandwidth_penalty`, steering the
    anneal away from mappings that concentrate more flit traffic than
    the fabric's links can carry (SunMap's bandwidth-constrained mode).
    """
    mapping = dict(initial) if initial else greedy_mapping(core_graph, fabric, max_radix)
    capacity = slot_capacity(fabric, max_radix)
    for sw in mapping.values():
        capacity[sw] -= 1
    if any(v < 0 for v in capacity.values()):
        raise ValueError("initial mapping exceeds switch capacity")
    cores: List[str] = list(core_graph.cores)
    if len(cores) < 2:
        return mapping  # nothing to swap, and a lone core costs the same anywhere

    # The problem is read once into index-based state; the loop below
    # touches no graph and no name.  The objective stays the full sum in
    # demand order (not a delta), so every float -- and with it every
    # accept decision -- is the one mapping_cost / bandwidth_penalty give.
    switches = fabric.switches
    core_ids = list(range(len(cores)))
    core_index = {c: i for i, c in enumerate(cores)}
    switch_index = {s: j for j, s in enumerate(switches)}
    hops = fabric.hop_matrix()
    hop1 = [[hops[a][b] + 1 for b in switches] for a in switches]
    place = [switch_index[mapping[c]] for c in cores]
    cap = [capacity[s] for s in switches]
    demands = [
        (core_index[src], core_index[dst], rate)
        for src, dst, rate in core_graph.demands()
    ]
    fabric_edges = len(fabric.edges)
    flit_demands = []
    if bandwidth_params is not None:
        flit_demands = [
            (s, d, demand_to_flit_rate(rate, bandwidth_params)) for s, d, rate in demands
        ]

    def objective() -> float:
        total = 0.0
        for s, d, rate in demands:
            total += rate * hop1[place[s]][place[d]]
        if flit_demands:
            pressure = 0.0
            for s, d, flits in flit_demands:
                pressure += flits * hop1[place[s]][place[d]]
            total += bandwidth_weight * _overload_penalty(pressure, fabric_edges)
        return total

    rng = random.Random(seed)
    cost = objective()
    best_place, best_cost = list(place), cost
    alpha = (t_end / t_start) ** (1.0 / max(iterations - 1, 1))
    temp = t_start

    for _ in range(iterations):
        if rng.random() < 0.5:
            # Move one core to a switch with a free slot.
            core = rng.choice(core_ids)
            old = place[core]
            frees = [j for j, free in enumerate(cap) if free > 0 and j != old]
            if not frees:
                temp *= alpha
                continue
            dest = rng.choice(frees)
            place[core] = dest
            new_cost = objective()
            if _accept(new_cost - cost, temp, rng):
                cap[old] += 1
                cap[dest] -= 1
                cost = new_cost
            else:
                place[core] = old
        else:
            # Swap two cores.
            a, b = rng.sample(core_ids, 2)
            if place[a] == place[b]:
                temp *= alpha
                continue
            place[a], place[b] = place[b], place[a]
            new_cost = objective()
            if _accept(new_cost - cost, temp, rng):
                cost = new_cost
            else:
                place[a], place[b] = place[b], place[a]
        if cost < best_cost:
            best_place, best_cost = list(place), cost
        temp *= alpha
    for core, j in zip(cores, best_place):
        mapping[core] = switches[j]  # existing keys: the initial order stays
    return mapping


def _accept(delta: float, temp: float, rng: random.Random) -> bool:
    if delta <= 0:
        return True
    if temp <= 0:
        return False
    return rng.random() < math.exp(-delta / temp)


def apply_mapping(
    fabric: Topology,
    core_graph: CoreGraph,
    mapping: Dict[str, str],
) -> Topology:
    """Attach every core's NI to its mapped switch (mutates the fabric)."""
    for core in core_graph.cores:
        if core not in mapping:
            raise ValueError(f"core {core!r} unmapped")
    for core, spec in core_graph.cores.items():
        if spec.is_initiator:
            fabric.add_initiator(core)
        else:
            fabric.add_target(core)
        fabric.attach(core, mapping[core])
    return fabric
