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

    def pairs(self) -> List[Tuple[str, str]]:
        """Every ordered (initiator, target) pair, then every (target,
        initiator) pair: the routes the NI LUTs hold."""
        inits, targets = self.topology.initiators, self.topology.targets
        return [(i, t) for i in inits for t in targets] + [
            (t, i) for i in inits for t in targets
        ]

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
