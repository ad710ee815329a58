"""Wormhole deadlock analysis: channel dependency graphs.

xpipes Lite has no virtual channels, so freedom from routing deadlock
must come from the route set itself (which is why the compiler picks
dimension-order routing on meshes).  This module builds the classic
Dally/Seitz **channel dependency graph**: one node per unidirectional
fabric channel, one edge whenever some route occupies channel A and
then channel B at the next hop.  Wormhole routing is provably
deadlock-free iff this graph is acyclic.

The builder can run the check up front (``Noc`` exposes it via
:func:`check_deadlock_freedom`), turning a lurking simulation hang into
a design-time diagnostic -- exactly the kind of guarantee a
synthesis-oriented flow must give.

networkx (for its cycle enumeration) is imported by the two functions
that build or search the graph, not by this module: no build, sweep or
serve path that skips the analysis loads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Tuple

from repro.core.routing import Route, route_between
from repro.network.topology import Topology

if TYPE_CHECKING:
    import networkx as nx

Channel = Tuple[str, str]  # (from element, to element), direction of flow


@dataclass
class DeadlockReport:
    """Result of a channel-dependency analysis."""

    is_deadlock_free: bool
    cycles: List[List[Channel]]
    n_channels: int
    n_dependencies: int
    #: True when enumeration stopped at the sample cap -- ``cycles``
    #: then holds a sample and the true count is even larger.
    cycles_truncated: bool = field(default=False)

    def describe(self) -> str:
        if self.is_deadlock_free:
            return (
                f"deadlock-free: {self.n_channels} channels, "
                f"{self.n_dependencies} dependencies, no cycles"
            )
        sample = self.cycles[0]
        pretty = " -> ".join(f"{a}->{b}" for a, b in sample)
        more = "+" if self.cycles_truncated else ""
        return (
            f"NOT deadlock-free: {len(self.cycles)}{more} dependency cycle(s); "
            f"e.g. {pretty}"
        )


def channel_dependency_graph(
    topology: Topology,
    policy: str = "",
) -> nx.DiGraph:
    """Build the channel dependency graph for all NI-pair routes.

    Nodes are unidirectional switch-to-switch channels (NI injection
    and ejection channels cannot participate in cycles -- they have a
    single producer/consumer -- and are omitted, as is standard).
    """
    import networkx as nx

    policy = policy or topology.default_policy
    cdg = nx.DiGraph()
    pairs = [(i, t) for i in topology.initiators for t in topology.targets]
    pairs += [(t, i) for i in topology.initiators for t in topology.targets]
    for src, dst in pairs:
        route = route_between(topology, src, dst, policy)
        channels = _route_channels(topology, src, route)
        fabric = [c for c in channels if c[0] in topology.switches
                  and c[1] in topology.switches]
        for a, b in zip(fabric, fabric[1:]):
            cdg.add_edge(a, b)
        for c in fabric:
            cdg.add_node(c)
    return cdg


def _route_channels(topology: Topology, src_ni: str, route: Route) -> List[Channel]:
    """The ordered channels a route occupies, injection to ejection."""
    channels: List[Channel] = []
    current = topology.switch_of(src_ni)
    channels.append((src_ni, current))
    for hop in route:
        nxt = topology.ports_of(current)[hop]
        channels.append((current, nxt))
        if nxt in topology.switches:
            current = nxt
    return channels


#: Default cap on enumerated dependency cycles: a bad policy on a large
#: topology has combinatorially many, and the report only needs enough
#: to count truthfully and show examples.
CYCLE_SAMPLE_CAP = 64


def check_deadlock_freedom(
    topology: Topology, policy: str = "", cycle_cap: int = CYCLE_SAMPLE_CAP
) -> DeadlockReport:
    """Analyse a topology + routing policy for wormhole deadlock.

    Enumerates up to ``cycle_cap`` distinct dependency cycles (via
    ``nx.simple_cycles``) so the report's cycle count is truthful
    rather than "the first one found"; ``cycles_truncated`` flags when
    the cap was hit.
    """
    import networkx as nx

    cdg = channel_dependency_graph(topology, policy)
    cycles = [
        list(nodes)
        for nodes in itertools.islice(nx.simple_cycles(cdg), cycle_cap + 1)
    ]
    truncated = len(cycles) > cycle_cap
    if truncated:
        cycles = cycles[:cycle_cap]
    return DeadlockReport(
        is_deadlock_free=not cycles,
        cycles=cycles,
        n_channels=cdg.number_of_nodes(),
        n_dependencies=cdg.number_of_edges(),
        cycles_truncated=truncated,
    )
