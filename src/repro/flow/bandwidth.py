"""Link bandwidth feasibility analysis.

A mapping is only viable if no link is asked to carry more traffic than
it physically can -- the constraint SunMap checks before handing a
topology to the compiler.  Given a mapped topology and the application's
core graph, this module routes every demand along its actual source
route, accumulates per-link load, converts it into flits/cycle (header
overhead included) and flags violations against the link capacity of
one flit per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.config import NocParameters
from repro.core.packet import PacketHeader
from repro.core.routing import Channel, RouteSet
from repro.flow.taskgraph import CoreGraph
from repro.network.topology import Topology

#: A link carries at most one flit per cycle.
LINK_CAPACITY_FLITS_PER_CYCLE = 1.0


@dataclass(frozen=True)
class LinkLoad:
    """Load on one unidirectional link, in flits per cycle."""

    src: str  # switch or NI name
    dst: str
    flits_per_cycle: float

    @property
    def utilization(self) -> float:
        return self.flits_per_cycle / LINK_CAPACITY_FLITS_PER_CYCLE


def flits_per_transaction(params: NocParameters, burst_len: int) -> float:
    """Flits of one request packet carrying ``burst_len`` data beats."""
    bits = PacketHeader.bit_width(params) + burst_len * params.data_width
    return -(-bits // params.flit_width)


def demand_to_flit_rate(
    rate_words_per_kcycle: float,
    params: NocParameters,
    burst_len: int = 4,
) -> float:
    """Convert a words/kcycle demand into link flits/cycle.

    Traffic is assumed packetized into ``burst_len``-beat transactions;
    the header overhead is amortized over each burst.
    """
    if rate_words_per_kcycle < 0:
        raise ValueError("demand must be non-negative")
    transactions_per_cycle = rate_words_per_kcycle / 1000.0 / burst_len
    return transactions_per_cycle * flits_per_transaction(params, burst_len)


#: One demand on a placement: its rate (words/kcycle) and the channels
#: its source route crosses, the NI injection and ejection links
#: included (:meth:`repro.core.routing.RouteSet.channels`).
DemandRoute = Tuple[float, Tuple[Channel, ...]]


def demand_routes(routes: RouteSet, core_graph: CoreGraph) -> List[DemandRoute]:
    """Every demand's rate and links, in ``core_graph.demands()`` order.

    Only the placement decides them, never flit width or buffer depth,
    so a mapped fabric derives them once
    (:attr:`repro.flow.selection.MappedFabric.routes`) and every
    configuration loads them with :func:`route_loads`.
    """
    return [(rate, routes.channels(src, dst)) for src, dst, rate in core_graph.demands()]


def route_loads(
    routes: Sequence[DemandRoute],
    params: NocParameters,
    burst_len: int = 4,
) -> Dict[Tuple[str, str], LinkLoad]:
    """Per-link flit load of :func:`demand_routes` under ``params``."""
    loads: Dict[Tuple[str, str], float] = {}
    for rate, links in routes:
        flits = demand_to_flit_rate(rate, params, burst_len)
        for link in links:
            loads[link] = loads.get(link, 0.0) + flits
    return {
        key: LinkLoad(src=key[0], dst=key[1], flits_per_cycle=v)
        for key, v in loads.items()
    }


def link_loads(
    topology: Topology,
    core_graph: CoreGraph,
    params: NocParameters,
    burst_len: int = 4,
) -> Dict[Tuple[str, str], LinkLoad]:
    """Per-link flit load when every demand follows its source route
    under the topology's default policy.

    Links are identified by (from-element, to-element) pairs in the
    direction of flow; NI injection and ejection links are included.
    """
    return route_loads(demand_routes(RouteSet(topology), core_graph), params, burst_len)


def check_feasibility(
    topology: Topology,
    core_graph: CoreGraph,
    params: NocParameters,
    burst_len: int = 4,
    margin: float = 0.8,
) -> Tuple[bool, List[LinkLoad]]:
    """Is the mapping's worst link within ``margin`` of capacity?

    Returns (feasible, overloaded links sorted worst-first).  ``margin``
    below 1.0 keeps headroom for the ACK/NACK retransmission overhead
    and burstiness that average-rate analysis cannot see.
    """
    return feasibility(link_loads(topology, core_graph, params, burst_len), margin)


def feasibility(
    loads: Dict[Tuple[str, str], LinkLoad],
    margin: float = 0.8,
) -> Tuple[bool, List[LinkLoad]]:
    """:func:`check_feasibility` of loads already computed."""
    if not 0 < margin <= 1.0:
        raise ValueError("margin must be in (0, 1]")
    hot = [
        load
        for load in loads.values()
        if load.flits_per_cycle > margin * LINK_CAPACITY_FLITS_PER_CYCLE
    ]
    hot.sort(key=lambda x: -x.flits_per_cycle)
    return (not hot, hot)
