"""The topology library.

The xpipes design flow picks a topology from a library (SunMap's
"Topology Library" box) and instantiates it; xpipes supports arbitrary
("highly heterogeneous, custom, domain-specific") topologies.  This
module provides the structural model -- switches, the NIs attached to
them, and the port numbering both simulation and code generation rely
on -- plus factories for the standard shapes.

Port numbering: each switch's ports are numbered in the order its
connections were declared.  Port *p* is bidirectional (input *p* and
output *p* lead to the same neighbour), matching the paper's NxM
switches whose radix equals the number of attached elements.

The port lists are also the switch graph: routes, hop counts, the
centrality mapping reads and the link list all walk them directly (see
the graph walks below).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


class TopologyError(ValueError):
    """Structural error while building or querying a topology."""


@dataclass(frozen=True)
class NiAttachment:
    """One NI and where it plugs in."""

    name: str
    is_initiator: bool
    switch: Optional[str] = None


class Topology:
    """Switch fabric plus NI attachment points.

    Switches connect to each other and to NIs; every connection consumes
    one (bidirectional) port on each side.  ``coords`` optionally gives
    each switch an (x, y) grid position, enabling dimension-order
    routing on meshes.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        # switch -> neighbour (switch or NI) per port; the switch entries
        # are the switch graph's adjacency, in declaration order.
        self._ports: Dict[str, List[str]] = {}
        self._nis: Dict[str, NiAttachment] = {}
        self.coords: Dict[str, Tuple[int, int]] = {}

    # -- construction ------------------------------------------------------
    def add_switch(self, name: str, coord: Optional[Tuple[int, int]] = None) -> None:
        if name in self._ports or name in self._nis:
            raise TopologyError(f"duplicate element name {name!r}")
        self._ports[name] = []
        if coord is not None:
            self.coords[name] = coord

    def add_initiator(self, name: str) -> None:
        self._add_ni(name, is_initiator=True)

    def add_target(self, name: str) -> None:
        self._add_ni(name, is_initiator=False)

    def _add_ni(self, name: str, is_initiator: bool) -> None:
        if name in self._ports or name in self._nis:
            raise TopologyError(f"duplicate element name {name!r}")
        self._nis[name] = NiAttachment(name, is_initiator)

    def connect(self, a: str, b: str) -> None:
        """Link two switches (one port consumed on each)."""
        for s in (a, b):
            if s not in self._ports:
                raise TopologyError(f"{s!r} is not a switch")
        if a == b:
            raise TopologyError("self-loops are not allowed")
        if b in self._ports[a]:
            raise TopologyError(f"switches {a!r} and {b!r} already connected")
        self._ports[a].append(b)
        self._ports[b].append(a)

    def attach(self, ni: str, switch: str) -> None:
        """Plug an NI into a switch (one switch port consumed)."""
        if ni not in self._nis:
            raise TopologyError(f"{ni!r} is not an NI")
        if switch not in self._ports:
            raise TopologyError(f"{switch!r} is not a switch")
        att = self._nis[ni]
        if att.switch is not None:
            raise TopologyError(f"{ni!r} is already attached to {att.switch!r}")
        self._nis[ni] = NiAttachment(ni, att.is_initiator, switch)
        self._ports[switch].append(ni)

    # -- queries -----------------------------------------------------------
    @property
    def switches(self) -> List[str]:
        return list(self._ports)

    @property
    def nis(self) -> List[str]:
        return list(self._nis)

    @property
    def initiators(self) -> List[str]:
        return [n for n, a in self._nis.items() if a.is_initiator]

    @property
    def targets(self) -> List[str]:
        return [n for n, a in self._nis.items() if not a.is_initiator]

    def is_initiator(self, ni: str) -> bool:
        return self._nis[ni].is_initiator

    def switch_of(self, ni: str) -> str:
        att = self._nis.get(ni)
        if att is None:
            raise TopologyError(f"{ni!r} is not an NI")
        if att.switch is None:
            raise TopologyError(f"{ni!r} is not attached to any switch")
        return att.switch

    def ports_of(self, switch: str) -> List[str]:
        """Neighbour (switch or NI) behind each port, in port order."""
        return list(self._ports[switch])

    def has_edge(self, a: str, b: str) -> bool:
        """Whether switches ``a`` and ``b`` are linked."""
        return a in self._ports and b in self._ports and b in self._ports[a]

    @property
    def edges(self) -> List[Tuple[str, str]]:
        """Every switch-to-switch link once, from the side declared first."""
        return _edges(self._ports)

    def is_connected(self) -> bool:
        """Whether every switch reaches every other."""
        first = next(iter(self._ports), None)
        return first is None or len(_bfs_lengths(self._ports, first)) == len(self._ports)

    def hop_matrix(self) -> Dict[str, Dict[str, int]]:
        """Switch-to-switch hop counts: ``hops[a][b]``."""
        return {s: _bfs_lengths(self._ports, s) for s in self._ports}

    def closeness(self) -> Dict[str, float]:
        """Closeness centrality of every switch (Wasserman-Faust
        scaled, so a disconnected fabric still ranks its switches)."""
        return _closeness(self._ports)

    def radix_of(self, switch: str) -> int:
        return len(self._ports[switch])

    def port_toward(self, switch: str, neighbor: str) -> int:
        try:
            return self._ports[switch].index(neighbor)
        except ValueError:
            raise TopologyError(
                f"switch {switch!r} has no port toward {neighbor!r}"
            ) from None

    def validate(self) -> None:
        """Every NI attached; fabric connected; raises on violation."""
        for name, att in self._nis.items():
            if att.switch is None:
                raise TopologyError(f"NI {name!r} is unattached")
        if not self.is_connected():
            raise TopologyError(f"topology {self.name!r} is not connected")

    # -- path policies -------------------------------------------------------
    def switch_path(self, src: str, dst: str, policy: str = "shortest") -> List[str]:
        """Sequence of switches from ``src`` to ``dst`` inclusive."""
        if policy == "shortest":
            for s in (src, dst):
                if s not in self._ports:
                    raise TopologyError(f"{s!r} is not a switch")
            path = _shortest_path(self._ports, src, dst)
            if path is None:
                raise TopologyError(f"no path from {src!r} to {dst!r}")
            return path
        if policy == "dor":
            return self._dor_path(src, dst)
        raise TopologyError(f"unknown routing policy {policy!r}")

    def _dor_path(self, src: str, dst: str) -> List[str]:
        """Dimension-order (X then Y) path on a coordinate grid.

        Deadlock-free on meshes even under wormhole switching, which is
        why it is the default policy the compiler picks for them.
        """
        if src not in self.coords or dst not in self.coords:
            raise TopologyError("dimension-order routing needs switch coordinates")
        by_coord = {c: s for s, c in self.coords.items()}
        x, y = self.coords[src]
        dx, dy = self.coords[dst]
        path = [src]
        while x != dx:
            x += 1 if dx > x else -1
            nxt = by_coord.get((x, y))
            if nxt is None or not self.has_edge(path[-1], nxt):
                raise TopologyError(f"no X-dimension neighbour at {(x, y)}")
            path.append(nxt)
        while y != dy:
            y += 1 if dy > y else -1
            nxt = by_coord.get((x, y))
            if nxt is None or not self.has_edge(path[-1], nxt):
                raise TopologyError(f"no Y-dimension neighbour at {(x, y)}")
            path.append(nxt)
        return path

    @property
    def default_policy(self) -> str:
        """DOR when every switch has coordinates on a grid, else shortest."""
        return "dor" if self.coords and len(self.coords) == len(self._ports) else "shortest"

    def cache_token(self) -> tuple:
        """Stable structural identity for experiment-cache keys.

        Captures everything that affects a simulation built from this
        topology (names, port order, NI attachment, coordinates), so
        :class:`repro.flow.runner.ExperimentRunner` can hash configs
        containing topologies (see ``docs/PERFORMANCE.md``).
        """
        return (
            "Topology",
            self.name,
            tuple((s, tuple(ports)) for s, ports in self._ports.items()),
            tuple(sorted((n, a.is_initiator, a.switch) for n, a in self._nis.items())),
            tuple(sorted(self.coords.items())),
        )

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, switches={len(self._ports)}, "
            f"initiators={len(self.initiators)}, targets={len(self.targets)})"
        )


# -- graph walks ---------------------------------------------------------------
#
# ``adj`` is ``Topology._ports``: each switch and the neighbour behind
# each of its ports.  A neighbour that is not a key is an NI, not a
# graph node, and every walk skips it.  Nodes and neighbours are visited
# in insertion order with networkx's tie-breaks (``Graph.edges``,
# ``single_source_shortest_path_length``, ``closeness_centrality`` and
# the ``bidirectional_shortest_path`` that ``shortest_path`` runs on an
# unweighted graph), so every route, hop count, centrality -- and the
# mappings, cache keys and stored results built on them -- is the one
# networkx gives for the same fabric (tests/test_graph_walks.py).


def _edges(adj: Dict[str, List[str]]) -> List[Tuple[str, str]]:
    out: List[Tuple[str, str]] = []
    seen = set()
    for v, ports in adj.items():
        out.extend((v, w) for w in ports if w in adj and w not in seen)
        seen.add(v)
    return out


def _bfs_lengths(adj: Dict[str, List[str]], source: str) -> Dict[str, int]:
    """Hops from ``source`` to every reachable switch, in BFS order."""
    dist = {source: 0}
    level, d = [source], 0
    while level:
        d += 1
        nxt = []
        for v in level:
            for w in adj[v]:
                if w in adj and w not in dist:
                    dist[w] = d
                    nxt.append(w)
        level = nxt
    return dist


def _closeness(adj: Dict[str, List[str]]) -> Dict[str, float]:
    n = len(adj)
    out = {}
    for v in adj:
        sp = _bfs_lengths(adj, v)
        total = sum(sp.values())
        c = 0.0
        if total > 0.0 and n > 1:
            c = (len(sp) - 1.0) / total
            c *= (len(sp) - 1.0) / (n - 1)  # same float ops as networkx
        out[v] = c
    return out


def _shortest_path(adj: Dict[str, List[str]], src: str, dst: str) -> Optional[List[str]]:
    """Bidirectional BFS: grow the smaller fringe (the forward one on a
    tie) until the two searches meet; ``None`` when they cannot."""
    if src == dst:
        return [src]
    pred: Dict[str, Optional[str]] = {src: None}
    succ: Dict[str, Optional[str]] = {dst: None}
    forward, reverse = [src], [dst]
    while forward and reverse:
        if len(forward) <= len(reverse):
            forward, meet = _expand(adj, forward, pred, succ)
        else:
            reverse, meet = _expand(adj, reverse, succ, pred)
        if meet is not None:
            return _chain(pred, meet)[::-1] + _chain(succ, succ[meet])
    return None


def _expand(
    adj: Dict[str, List[str]],
    fringe: List[str],
    parent: Dict[str, Optional[str]],
    other: Dict[str, Optional[str]],
) -> Tuple[List[str], Optional[str]]:
    """One BFS level out of ``fringe``: the next fringe, and the first
    node the ``other`` search has already reached (None if none)."""
    nxt = []
    for v in fringe:
        for w in adj[v]:
            if w in adj:
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
                if w in other:
                    return nxt, w
    return nxt, None


def _chain(parent: Dict[str, Optional[str]], w: Optional[str]) -> List[str]:
    """``w``, its parent, its parent's parent, ... up to the search root."""
    out = []
    while w is not None:
        out.append(w)
        w = parent[w]
    return out


# -- factories ---------------------------------------------------------------


def mesh(rows: int, cols: int, name: Optional[str] = None) -> Topology:
    """A ``rows x cols`` 2D mesh of switches with grid coordinates."""
    if rows < 1 or cols < 1:
        raise TopologyError("mesh dimensions must be positive")
    topo = Topology(name or f"mesh{rows}x{cols}")
    for y in range(rows):
        for x in range(cols):
            topo.add_switch(f"sw_{x}_{y}", coord=(x, y))
    for y in range(rows):
        for x in range(cols):
            if x + 1 < cols:
                topo.connect(f"sw_{x}_{y}", f"sw_{x + 1}_{y}")
            if y + 1 < rows:
                topo.connect(f"sw_{x}_{y}", f"sw_{x}_{y + 1}")
    return topo


def torus(rows: int, cols: int, name: Optional[str] = None) -> Topology:
    """A 2D torus (mesh plus wraparound links).  No coordinates are set
    so routing falls back to shortest-path."""
    if rows < 3 or cols < 3:
        raise TopologyError("torus dimensions must be >= 3 (else duplicate edges)")
    topo = Topology(name or f"torus{rows}x{cols}")
    for y in range(rows):
        for x in range(cols):
            topo.add_switch(f"sw_{x}_{y}")
    for y in range(rows):
        for x in range(cols):
            topo.connect(f"sw_{x}_{y}", f"sw_{(x + 1) % cols}_{y}")
    for y in range(rows):
        for x in range(cols):
            topo.connect(f"sw_{x}_{y}", f"sw_{x}_{(y + 1) % rows}")
    return topo


def ring(n: int, name: Optional[str] = None) -> Topology:
    """A ring of ``n`` switches."""
    if n < 3:
        raise TopologyError("a ring needs at least 3 switches")
    topo = Topology(name or f"ring{n}")
    for i in range(n):
        topo.add_switch(f"sw_{i}")
    for i in range(n):
        topo.connect(f"sw_{i}", f"sw_{(i + 1) % n}")
    return topo


def star(n_leaves: int, name: Optional[str] = None) -> Topology:
    """One hub switch with ``n_leaves`` leaf switches."""
    if n_leaves < 1:
        raise TopologyError("a star needs at least one leaf")
    topo = Topology(name or f"star{n_leaves}")
    topo.add_switch("hub")
    for i in range(n_leaves):
        topo.add_switch(f"leaf_{i}")
        topo.connect("hub", f"leaf_{i}")
    return topo


def spidergon(n: int, name: Optional[str] = None) -> Topology:
    """A spidergon: an even ring plus cross links between opposite nodes."""
    if n < 4 or n % 2:
        raise TopologyError("spidergon needs an even switch count >= 4")
    topo = ring(n, name or f"spidergon{n}")
    topo.name = name or f"spidergon{n}"
    half = n // 2
    for i in range(half):
        topo.connect(f"sw_{i}", f"sw_{i + half}")
    return topo


def custom_topology(
    name: str,
    edges: Sequence[Tuple[str, str]],
    coords: Optional[Dict[str, Tuple[int, int]]] = None,
) -> Topology:
    """Arbitrary application-specific fabric from an edge list."""
    topo = Topology(name)
    seen = []
    for a, b in edges:
        for s in (a, b):
            if s not in seen:
                topo.add_switch(s, coord=(coords or {}).get(s))
                seen.append(s)
    for a, b in edges:
        topo.connect(a, b)
    return topo


def attach_round_robin(
    topo: Topology,
    n_initiators: int,
    n_targets: int,
    initiator_prefix: str = "cpu",
    target_prefix: str = "mem",
) -> Tuple[List[str], List[str]]:
    """Spread NIs evenly over the fabric (the quick-start mapping).

    Initiators and targets are interleaved across switches in order, so
    hand-built examples and tests get a sensible default placement.
    Returns the (initiator names, target names).
    """
    switches = topo.switches
    inits, targs = [], []
    for i in range(n_initiators):
        ni = f"{initiator_prefix}{i}"
        topo.add_initiator(ni)
        topo.attach(ni, switches[i % len(switches)])
        inits.append(ni)
    for i in range(n_targets):
        ni = f"{target_prefix}{i}"
        topo.add_target(ni)
        topo.attach(ni, switches[(i + n_initiators) % len(switches)])
        targs.append(ni)
    return inits, targs


def fully_connected(n: int, name: Optional[str] = None) -> Topology:
    """Every switch linked to every other (small n only: radix grows fast)."""
    if n < 2:
        raise TopologyError("fully connected needs at least 2 switches")
    topo = Topology(name or f"full{n}")
    for i in range(n):
        topo.add_switch(f"sw_{i}")
    for i in range(n):
        for j in range(i + 1, n):
            topo.connect(f"sw_{i}", f"sw_{j}")
    return topo


def hypercube(dim: int, name: Optional[str] = None) -> Topology:
    """A ``dim``-dimensional binary hypercube (2**dim switches)."""
    if dim < 1 or dim > 6:
        raise TopologyError("hypercube dimension must be in [1, 6]")
    n = 1 << dim
    topo = Topology(name or f"hcube{dim}")
    for i in range(n):
        topo.add_switch(f"sw_{i}")
    for i in range(n):
        for b in range(dim):
            j = i ^ (1 << b)
            if j > i:
                topo.connect(f"sw_{i}", f"sw_{j}")
    return topo


def fat_tree(leaves: int, name: Optional[str] = None) -> Topology:
    """A two-level fat tree: ``leaves`` leaf switches under a root pair.

    Each leaf connects to both roots, so root-level bandwidth is
    doubled -- the "fat" property at the only level that matters for
    SoC-scale instances.
    """
    if leaves < 2:
        raise TopologyError("fat tree needs at least 2 leaves")
    topo = Topology(name or f"ftree{leaves}")
    topo.add_switch("root_0")
    topo.add_switch("root_1")
    for i in range(leaves):
        leaf = f"leaf_{i}"
        topo.add_switch(leaf)
        topo.connect(leaf, "root_0")
        topo.connect(leaf, "root_1")
    return topo
