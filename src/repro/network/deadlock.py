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

The graph is a plain insertion-ordered adjacency dict, and its cycles
are enumerated with Johnson's algorithm, which spends O(V + E) per
node and per cycle found, never per path: the check stops after a
bounded sample, so a fabric with combinatorially many cycles costs no
more than one with a few.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from repro.core.routing import Channel, RouteSet
from repro.network.topology import Topology


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
    policy: Optional[str] = None,
) -> Dict[Channel, List[Channel]]:
    """Build the channel dependency graph for all NI-pair routes, as
    ``{channel: [channels that depend on it]}`` in first-seen order.

    Nodes are unidirectional switch-to-switch channels (NI injection
    and ejection channels cannot participate in cycles -- they have a
    single producer/consumer -- and are omitted, as is standard).
    """
    routes = RouteSet(topology, policy)
    cdg: Dict[Channel, List[Channel]] = {}
    for src, dst in routes.pairs():
        fabric = routes.channels(src, dst)[1:-1]
        for a, b in zip(fabric, fabric[1:]):
            succ = cdg.setdefault(a, [])
            if b not in succ:
                succ.append(b)
            cdg.setdefault(b, [])
        for c in fabric:
            cdg.setdefault(c, [])
    return cdg


#: Default cap on enumerated dependency cycles: a bad policy on a large
#: topology has combinatorially many, and the report only needs enough
#: to count truthfully and show examples.
CYCLE_SAMPLE_CAP = 64


def check_deadlock_freedom(
    topology: Topology, policy: Optional[str] = None, cycle_cap: int = CYCLE_SAMPLE_CAP
) -> DeadlockReport:
    """Analyse a topology + routing policy for wormhole deadlock.

    Enumerates up to ``cycle_cap`` distinct dependency cycles so the
    report's cycle count is truthful rather than "the first one found";
    ``cycles_truncated`` flags when the cap was hit.
    """
    cdg = channel_dependency_graph(topology, policy)
    cycles = list(itertools.islice(_simple_cycles(cdg), cycle_cap + 1))
    truncated = len(cycles) > cycle_cap
    if truncated:
        cycles = cycles[:cycle_cap]
    return DeadlockReport(
        is_deadlock_free=not cycles,
        cycles=cycles,
        n_channels=len(cdg),
        n_dependencies=sum(len(succ) for succ in cdg.values()),
        cycles_truncated=truncated,
    )


def _simple_cycles(graph: Dict[Channel, List[Channel]]) -> Iterator[List[Channel]]:
    """Every elementary cycle of ``graph`` once, by Johnson's algorithm
    (SIAM J. Comput. 4(1), 1975): number the nodes in the dict's order
    and, for each node, walk the cycles through it inside its strongly
    connected component among the nodes numbered no lower.  The cycles
    come out in the same order in every run."""
    nodes = list(graph)
    number = {node: i for i, node in enumerate(nodes)}
    succ = [[number[w] for w in graph[node]] for node in nodes]
    pred: List[List[int]] = [[] for _ in nodes]
    for v, out in enumerate(succ):
        for w in out:
            pred[w].append(v)
    for start in range(len(nodes)):
        within = _reach(succ, start) & _reach(pred, start)
        for cycle in _circuits(succ, within, start):
            yield [nodes[i] for i in cycle]


def _reach(adj: List[List[int]], start: int) -> Set[int]:
    """The nodes numbered ``start`` or higher that ``start`` reaches
    over ``adj`` through such nodes."""
    seen, todo = {start}, [start]
    while todo:
        for w in adj[todo.pop()]:
            if w > start and w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def _circuits(succ: List[List[int]], within: Set[int], start: int) -> Iterator[List[int]]:
    """The elementary cycles through ``start`` inside ``within``: a
    depth-first walk that blocks a node until a cycle through it is
    possible again, so no walk repeats a dead end."""
    path = [start]
    blocked = {start}
    closed: Set[int] = set()  # a cycle was found below: unblock on the way back
    waiting: Dict[int, Set[int]] = {}  # node -> nodes it unblocks
    stack = [(start, [w for w in succ[start] if w in within])]
    while stack:
        node, todo = stack[-1]
        if todo:
            nxt = todo.pop()
            if nxt == start:
                yield list(path)
                closed.update(path)
            elif nxt not in blocked:
                path.append(nxt)
                blocked.add(nxt)
                closed.discard(nxt)
                stack.append((nxt, [w for w in succ[nxt] if w in within]))
            continue
        if node in closed:
            unblock = [node]
            while unblock:
                v = unblock.pop()
                if v in blocked:
                    blocked.discard(v)
                    unblock.extend(waiting.pop(v, ()))
        else:
            for w in succ[node]:
                if w in within:
                    waiting.setdefault(w, set()).add(node)
        stack.pop()
        path.pop()
