"""Link bandwidth loads.

A mapping is only viable if no link is asked to carry more traffic than
it physically can -- the constraint SunMap checks before handing a
topology to the compiler.  Given a mapped topology's routes and the
application's core graph, this module routes every demand along its
actual source route and accumulates per-link load in flits/cycle
(header overhead included); :func:`repro.core.routing.violations`
judges those loads against the link capacity.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.config import NocParameters
from repro.core.packet import PacketHeader
from repro.core.routing import Channel, RouteSet
from repro.flow.taskgraph import CoreGraph


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
) -> Dict[Channel, float]:
    """Flits per cycle on every channel :func:`demand_routes` cross,
    under ``params``; NI injection and ejection links included."""
    loads: Dict[Channel, float] = {}
    for rate, links in routes:
        flits = demand_to_flit_rate(rate, params, burst_len)
        for link in links:
            loads[link] = loads.get(link, 0.0) + flits
    return loads
