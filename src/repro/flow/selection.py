"""Topology selection: the "power of abstraction" loop.

For each candidate fabric the flow maps the application, checks link
bandwidth, runs the analytic synthesis models and estimates average
transaction latency -- then ranks candidates by a user-weighted
objective.  This is the paper's F7 experiment: different topologies for
the same application trade clock frequency, area and cycle counts
(e.g. 925 MHz / 0.51 mm² / +10% performance vs 850 MHz / 0.42 mm² /
-14% area).  A candidate's floorplan (placement, wire lengths, link
pipelining) is derived from it on demand: no estimate reads it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import NocBuildConfig, NocParameters
from repro.core.routing import RouteSet
from repro.flow.bandwidth import (
    DemandRoute,
    LinkLoad,
    demand_routes,
    feasibility,
    flits_per_transaction,
    route_loads,
)
from repro.flow.floorplan import Floorplan, floorplan_topology
from repro.flow.mapping import anneal_mapping, apply_mapping, greedy_mapping, mapping_cost
from repro.flow.taskgraph import CoreGraph
from repro.network.topology import Topology
from repro.synth.report import NocCensus, SynthesisReport, synthesize_noc

#: Cycles a flit spends per hop: 2 switch pipeline stages + 1 link stage.
CYCLES_PER_HOP = 3
#: Fixed NI cycles per transaction (packetize + depacketize, both ends).
NI_OVERHEAD_CYCLES = 6


@dataclass
class CandidateResult:
    """Evaluation of one candidate topology for one application."""

    topology: Topology
    mapping: Dict[str, str]
    report: SynthesisReport
    freq_mhz: float
    area_mm2: float
    power_mw: float
    mean_cycles: float  # demand-weighted transaction latency in cycles
    mean_latency_ns: float
    mapping_cost: float
    feasible: bool = True  # all links within bandwidth margin
    overloaded: "List[LinkLoad]" = None  # type: ignore[assignment]

    @property
    def name(self) -> str:
        return self.topology.name

    @cached_property
    def floorplan(self) -> Floorplan:
        """Placement of the mapped topology, annealed on first read."""
        return floorplan_topology(self.topology)

    def row(self) -> str:
        return (
            f"{self.name:<16} {self.freq_mhz:>7.0f} MHz {self.area_mm2:>7.3f} mm2 "
            f"{self.power_mw:>8.1f} mW {self.mean_cycles:>6.1f} cyc "
            f"{self.mean_latency_ns:>7.2f} ns"
        )


def estimate_mean_cycles(
    core_graph: CoreGraph,
    topology: Topology,
    mapping: Dict[str, str],
    params: Optional[NocParameters] = None,
    burst_len: int = 4,
) -> float:
    """Demand-weighted average one-way transaction latency in cycles.

    Three terms per demand: hop traversal (``CYCLES_PER_HOP`` each), the
    fixed NI overhead, and wormhole serialization -- a packet of *n*
    flits finishes *n - 1* cycles after its head, so narrow flits pay
    for their cheap datapaths in latency (the tradeoff the A3 ablation
    measures and the DSE sweeps).

    Like the placement search's cost, it reads a core -> switch
    ``mapping`` and the switch-to-switch BFS distance
    (:meth:`Topology.hop_matrix`), so it needs no NI attached; every
    routing policy is minimal, so it equals :func:`mean_cycles` of
    :attr:`MappedFabric.hops`, which reads the routes.
    """
    hops = topology.hop_matrix()
    return mean_cycles(
        [(rate, hops[mapping[src]][mapping[dst]] + 1)
         for src, dst, rate in core_graph.demands()],
        params,
        burst_len,
    )


def mean_cycles(
    hop_counts: Sequence[Tuple[float, int]],
    params: Optional[NocParameters] = None,
    burst_len: int = 4,
) -> float:
    """:func:`estimate_mean_cycles` over ``(rate, hop count)`` per
    demand, the ejection hop included."""
    params = params or NocParameters()
    serialization = flits_per_transaction(params, burst_len) - 1
    total_rate = 0.0
    total_cycles = 0.0
    for rate, hop_count in hop_counts:
        total_cycles += rate * (
            hop_count * CYCLES_PER_HOP + NI_OVERHEAD_CYCLES + serialization
        )
        total_rate += rate
    if total_rate == 0:
        return float(NI_OVERHEAD_CYCLES + serialization)
    return total_cycles / total_rate


class MappedFabric:
    """Stage 1 of a candidate's evaluation: the application mapped onto
    one fabric (the paper's SunMap step, before xpipesCompiler sizes it).

    The mapping reads the core graph, the fabric and the annealer knobs
    -- never flit width or buffer depth -- so every configuration of
    one fabric shares one of these: :attr:`placement` copies, maps and
    anneals on first read and is kept for as long as the object is.
    This is where the fabric is deep-copied (mapping attaches NIs to
    it): callers pass candidate objects as they are and may reuse them.

    Deliberately not a dataclass: :meth:`cache_token` makes it render
    as the bare fabric, so a design-point tuple carrying one has the
    cache key of the tuple carrying the fabric.
    """

    def __init__(
        self,
        core_graph: CoreGraph,
        fabric: Topology,
        max_radix: int = 8,
        anneal_iterations: int = 1500,
        seed: int = 0,
    ) -> None:
        self.core_graph = core_graph
        self.fabric = fabric
        self.max_radix = max_radix
        self.anneal_iterations = anneal_iterations
        self.seed = seed

    def cache_token(self) -> Topology:
        return self.fabric

    @cached_property
    def placement(self) -> "tuple[Topology, Dict[str, str], float]":
        """``(mapped topology, core -> switch, mapping cost)``."""
        fabric = copy.deepcopy(self.fabric)
        mapping = anneal_mapping(
            self.core_graph,
            fabric,
            initial=greedy_mapping(self.core_graph, fabric, self.max_radix),
            max_radix=self.max_radix,
            iterations=self.anneal_iterations,
            seed=self.seed,
        )
        topo = apply_mapping(fabric, self.core_graph, mapping)
        return topo, mapping, mapping_cost(self.core_graph, topo, mapping)

    # What stage 2 reads of the placement: fixed by it, the same for
    # every flit width and buffer depth, so derived on first read and
    # kept for as long as the placement is.

    @cached_property
    def route_set(self) -> RouteSet:
        """The routes of the mapped topology under its default policy."""
        return RouteSet(self.placement[0])

    @cached_property
    def hops(self) -> List[Tuple[float, int]]:
        """``(rate, hop count)`` of every demand, in demand order, the
        ejection hop included: all the latency estimate reads."""
        route = self.route_set.route
        return [(rate, len(route(src, dst))) for src, dst, rate in self.core_graph.demands()]

    @cached_property
    def routes(self) -> List[DemandRoute]:
        """:func:`~repro.flow.bandwidth.demand_routes` of the placement."""
        return demand_routes(self.route_set, self.core_graph)

    @cached_property
    def census(self) -> NocCensus:
        """The synthesis models' view of the mapped topology."""
        return NocCensus.of(self.placement[0])


def estimate_candidate(
    mapped: MappedFabric,
    config: Optional[NocBuildConfig] = None,
    target_freq_mhz: float = 1000.0,
) -> CandidateResult:
    """Stage 2: size one mapped fabric under ``config`` and estimate it.
    Reads the placement, never changes it, so results of one
    :class:`MappedFabric` share its topology and mapping objects; what
    the placement alone decides (hop counts, routes, the census of
    component instances) is derived once per fabric, and only the
    models that read width and depth run per point."""
    topo, mapping, cost = mapped.placement
    report = synthesize_noc(mapped.census, config, target_freq_mhz=target_freq_mhz)
    freq = min(report.min_max_freq_mhz, target_freq_mhz)
    params = (config.params if config is not None else None) or NocParameters()
    cycles = mean_cycles(mapped.hops, params)
    feasible, overloaded = feasibility(route_loads(mapped.routes, params))
    return CandidateResult(
        topology=topo,
        mapping=mapping,
        report=report,
        freq_mhz=freq,
        area_mm2=report.total_area_mm2,
        power_mw=report.total_power_mw,
        mean_cycles=cycles,
        mean_latency_ns=cycles / (freq / 1000.0),
        mapping_cost=cost,
        feasible=feasible,
        overloaded=overloaded,
    )


def evaluate_candidate(
    core_graph: CoreGraph,
    fabric: Topology,
    config: Optional[NocBuildConfig] = None,
    target_freq_mhz: float = 1000.0,
    max_radix: int = 8,
    anneal_iterations: int = 1500,
    seed: int = 0,
) -> CandidateResult:
    """Map one candidate fabric and estimate the mapped topology: both
    stages, for a caller with one configuration per fabric."""
    mapped = MappedFabric(core_graph, fabric, max_radix, anneal_iterations, seed)
    return estimate_candidate(mapped, config, target_freq_mhz)


def select_topology(
    core_graph: CoreGraph,
    candidates: Sequence[Topology],
    config: Optional[NocBuildConfig] = None,
    target_freq_mhz: float = 1000.0,
    objective: Optional[Callable[[CandidateResult], float]] = None,
    max_radix: int = 8,
    seed: int = 0,
) -> List[CandidateResult]:
    """Evaluate all candidates; return them sorted best-first.

    The default objective minimizes latency x area (a standard
    energy-delay-style product); pass ``objective`` to re-weight, e.g.
    ``lambda r: r.area_mm2`` for an area-driven selection.
    """
    if not candidates:
        raise ValueError("need at least one candidate topology")
    if objective is None:
        # Minimise latency x area; bandwidth-infeasible candidates are
        # pushed to the bottom regardless of their other merits.
        objective = lambda r: (  # noqa: E731
            (0 if r.feasible else 1),
            r.mean_latency_ns * r.area_mm2,
        )
    results = [
        evaluate_candidate(
            core_graph,
            fabric,
            config=config,
            target_freq_mhz=target_freq_mhz,
            max_radix=max_radix,
            seed=seed,
        )
        for fabric in candidates
    ]
    results.sort(key=objective)
    return results
