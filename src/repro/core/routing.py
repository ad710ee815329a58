"""Source-based routing.

xpipes Lite switches do not hold routing tables: the whole path is
computed at design time by the xpipesCompiler and carried in each packet
header as a sequence of output-port indices ("source based routing").
The only lookup hardware is the LUT inside each NI:

* the **initiator NI** LUT maps the OCP MAddr's upper bits to a
  destination and its pre-computed route;
* the **target NI** LUT maps an initiator id (from the request header)
  to the response route back.

This module defines the :class:`Route` value, the :class:`AddressMap`
that assigns each target a region of the address space, the two LUT
flavours bundled as :class:`RoutingTable`, and :class:`RouteSet`, the
one place a route is derived: every view of a NoC -- the simulator's
LUTs, the compiler's tables, the link loads, the deadlock check and the
estimate -- reads its routes from one.

It also holds the one buildability verdict, :func:`violations`.  The NI
packs the whole source route into a fixed header field (``max_hops``
hops of ``port_bits`` bits) and its node id into ``node_id_bits``, so a
route set the header cannot encode is not a NoC; neither is one whose
demands load a link past its capacity.  The simulator's builder,
``repro compile`` and the design-space estimate all ask it, so they
refuse the same NoCs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.packet import ADDR_OFFSET_BITS


@dataclass(frozen=True)
class Route:
    """A source route: one output-port index per switch traversed."""

    ports: Tuple[int, ...]

    def __post_init__(self) -> None:
        for p in self.ports:
            if p < 0:
                raise ValueError("port indices are non-negative")

    def __len__(self) -> int:
        return len(self.ports)

    def __iter__(self):
        return iter(self.ports)

    def __getitem__(self, i: int) -> int:
        return self.ports[i]

    @property
    def hops(self) -> int:
        return len(self.ports)


class AddressMap:
    """Assigns each target NI a naturally aligned address region.

    Target ``i`` (in registration order) owns addresses
    ``[i << ADDR_OFFSET_BITS, (i + 1) << ADDR_OFFSET_BITS)``.  This is
    the "MAddr after LUT" split from the paper: the upper bits select
    the destination, the lower bits travel in the header as the offset.
    """

    def __init__(self, targets: Iterable[str]) -> None:
        self._slots: Dict[str, int] = {}
        for i, name in enumerate(targets):
            if name in self._slots:
                raise ValueError(f"duplicate target {name!r}")
            self._slots[name] = i

    @property
    def targets(self) -> List[str]:
        return sorted(self._slots, key=self._slots.get)

    def base_of(self, target: str) -> int:
        return self._slots[target] << ADDR_OFFSET_BITS

    def region_of(self, target: str) -> Tuple[int, int]:
        base = self.base_of(target)
        return base, base + (1 << ADDR_OFFSET_BITS)

    def decode(self, addr: int) -> Tuple[str, int]:
        """Split an MAddr into (target name, offset)."""
        slot = addr >> ADDR_OFFSET_BITS
        offset = addr & ((1 << ADDR_OFFSET_BITS) - 1)
        for name, s in self._slots.items():
            if s == slot:
                return name, offset
        raise KeyError(f"address {addr:#x} maps to no target (slot {slot})")

    def __contains__(self, target: str) -> bool:
        return target in self._slots

    def __len__(self) -> int:
        return len(self._slots)


class RoutingTable:
    """The LUT contents of one NI.

    For an initiator NI, ``forward`` maps a target name to
    ``(dest_node_id, Route)``.  For a target NI, ``reverse`` maps an
    initiator node id to the response :class:`Route`.
    """

    def __init__(
        self,
        address_map: Optional[AddressMap] = None,
        forward: Optional[Mapping[str, Tuple[int, Route]]] = None,
        reverse: Optional[Mapping[int, Route]] = None,
    ) -> None:
        self.address_map = address_map
        self.forward: Dict[str, Tuple[int, Route]] = dict(forward or {})
        self.reverse: Dict[int, Route] = dict(reverse or {})

    # -- initiator side ---------------------------------------------------
    def lookup_addr(self, addr: int) -> Tuple[str, int, int, Route]:
        """Decode an MAddr: (target name, dest node id, offset, route)."""
        if self.address_map is None:
            raise ValueError("this routing table has no address map")
        target, offset = self.address_map.decode(addr)
        dest_id, route = self.forward[target]
        return target, dest_id, offset, route

    # -- target side ------------------------------------------------------
    def route_back(self, initiator_id: int) -> Route:
        return self.reverse[initiator_id]


#: A unidirectional channel: (from element, to element), in the
#: direction of flow; an element is a switch or an NI.
Channel = Tuple[str, str]


class RouteSet:
    """Every source route of one topology under one routing policy.

    ``topology`` is duck-typed and must provide ``initiators``,
    ``targets``, ``default_policy``, ``switch_of(ni)``,
    ``switch_path(src, dst, policy)`` and ``port_toward(switch,
    neighbor)`` -- see :class:`repro.network.topology.Topology`.  The
    policy is resolved here, once: ``None`` means the topology's
    default.  A pair is routed on first read and kept, so a caller that
    reads a few pairs pays for those alone.

    The route from one NI to another is, for each switch on the path,
    the output port toward the next element (the next switch, or the
    destination NI at the last switch); its channels run from the
    injection link to the ejection link.
    """

    def __init__(self, topology, policy: Optional[str] = None) -> None:
        self.topology = topology
        self.policy: str = policy or topology.default_policy
        self._routes: Dict[Tuple[str, str], Tuple[Route, Tuple[Channel, ...]]] = {}
        self._unencodable: Dict[Tuple[int, int], Tuple[Violation, ...]] = {}

    def pairs(self) -> List[Tuple[str, str]]:
        """Every ordered (initiator, target) pair, then every (target,
        initiator) pair: the routes the NI LUTs hold."""
        inits, targets = self.topology.initiators, self.topology.targets
        return [(i, t) for i in inits for t in targets] + [
            (t, i) for i in inits for t in targets
        ]

    def unencodable(self, params) -> Tuple["Violation", ...]:
        """The ``"hops"`` and ``"port"`` violations of every LUT pair
        under ``params``' route field (:class:`~repro.core.config.NocParameters`).
        The pairs are walked once per field shape and the answer kept, so
        a sweep that shares one route set walks them once per placement."""
        key = (params.max_hops, params.port_bits)
        if key not in self._unencodable:
            found = []
            for src, dst in self.pairs():
                route = self.route(src, dst)
                if route.hops > params.max_hops:
                    found.append(Violation("hops", (src, dst), (
                        f"route {src}->{dst} needs {route.hops} hops; raise "
                        f"NocParameters.max_hops (currently {params.max_hops})")))
                wide = [port for port in route if port >= params.max_radix]
                if wide:
                    found.append(Violation("port", (src, dst), (
                        f"route {src}->{dst} uses port {wide[0]}; raise "
                        f"NocParameters.port_bits (currently {params.port_bits})")))
            self._unencodable[key] = tuple(found)
        return self._unencodable[key]

    def route(self, src_ni: str, dst_ni: str) -> Route:
        """The port route from ``src_ni`` to ``dst_ni``."""
        return self._entry(src_ni, dst_ni)[0]

    def channels(self, src_ni: str, dst_ni: str) -> Tuple[Channel, ...]:
        """The channels the route occupies, injection to ejection."""
        return self._entry(src_ni, dst_ni)[1]

    def _entry(self, src_ni: str, dst_ni: str) -> Tuple[Route, Tuple[Channel, ...]]:
        entry = self._routes.get((src_ni, dst_ni))
        if entry is None:
            topo = self.topology
            path = topo.switch_path(
                topo.switch_of(src_ni), topo.switch_of(dst_ni), self.policy
            )
            hops = list(zip(path, path[1:] + [dst_ni]))
            ports = tuple(topo.port_toward(sw, nxt) for sw, nxt in hops)
            entry = (Route(ports), ((src_ni, path[0]), *hops))
            self._routes[(src_ni, dst_ni)] = entry
        return entry


#: A link carries at most one flit per cycle.
LINK_CAPACITY_FLITS_PER_CYCLE = 1.0
#: The share of that capacity an average load may take: headroom for
#: the ACK/NACK retransmissions and burstiness that an average-rate
#: analysis cannot see.
BANDWIDTH_MARGIN = 0.8


@dataclass(frozen=True)
class Violation:
    """One reason a NoC cannot be built.

    ``kind`` is ``"node_ids"`` (``where`` is empty: the whole NoC),
    ``"hops"`` or ``"port"`` (an NI pair), ``"link_override"`` (the
    connections named) or ``"bandwidth"`` (a channel).
    """

    kind: str
    where: Tuple[str, ...]
    message: str


def violations(
    route_set: RouteSet,
    config,
    loads: Optional[Mapping[Channel, float]] = None,
) -> List[Violation]:
    """Every reason ``route_set`` cannot be built under ``config`` (a
    :class:`~repro.core.config.NocBuildConfig`): too many NIs for the
    node id field, a LUT route the route field cannot encode, a link
    override that names no connection and -- given ``loads``, each
    channel's average flits per cycle -- a channel loaded past
    :data:`BANDWIDTH_MARGIN` of its capacity, worst first.  Empty means
    buildable."""
    topo, params = route_set.topology, config.params
    found: List[Violation] = []
    nis = len(topo.initiators) + len(topo.targets)
    if nis > params.max_nodes:
        found.append(Violation("node_ids", (), (
            f"{nis} NIs exceed the {params.node_id_bits}-bit "
            f"node id space ({params.max_nodes})")))
    found += route_set.unencodable(params)
    if config.link_overrides:
        known = {frozenset(e) for e in topo.edges}
        known |= {frozenset((ni, topo.switch_of(ni))) for ni in topo.nis}
        unknown = sorted("-".join(sorted(k)) for k in set(config.link_overrides) - known)
        if unknown:
            found.append(Violation("link_override", tuple(unknown), (
                "link_overrides name connections that do not exist: "
                + ", ".join(unknown))))
    hot = [(channel, flits) for channel, flits in (loads or {}).items()
           if flits > BANDWIDTH_MARGIN * LINK_CAPACITY_FLITS_PER_CYCLE]
    for (src, dst), flits in sorted(hot, key=lambda item: -item[1]):
        found.append(Violation("bandwidth", (src, dst), (
            f"link {src}->{dst} carries {flits:.2f} flits/cycle, over "
            f"{BANDWIDTH_MARGIN:.0%} of its capacity")))
    return found


def refusal(found: Iterable[Violation]) -> List[str]:
    """One line per violated kind: its first message, and how many more
    of that kind follow."""
    first: Dict[str, str] = {}
    count: Dict[str, int] = {}
    for v in found:
        first.setdefault(v.kind, v.message)
        count[v.kind] = count.get(v.kind, 0) + 1
    return [msg + (f" (and {count[kind] - 1} more)" if count[kind] > 1 else "")
            for kind, msg in first.items()]
