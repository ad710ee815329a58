"""Routing-table generation.

``XpipesCompiler: NoC specification -> routing tables`` -- for every
initiator NI a table of (target, destination id, source route) and for
every target NI a table of (initiator id, response route).  The same
tables feed the simulation view's NI LUTs and the synthesis view's
generated headers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.routing import AddressMap, Route, RouteSet
from repro.compiler.spec import NocSpecification


@dataclass
class RoutingTables:
    """All LUT contents of one NoC."""

    address_map: AddressMap
    node_ids: Dict[str, int]
    forward: Dict[str, Dict[str, Tuple[int, Route]]]  # initiator -> target -> ...
    reverse: Dict[str, Dict[int, Route]]  # target -> initiator id -> route


def generate_routing_tables(spec: NocSpecification) -> RoutingTables:
    """Compute every LUT from the specification."""
    topo = spec.to_topology()
    routes = RouteSet(topo, spec.routing_policy)
    node_ids = {ni: i for i, ni in enumerate(topo.initiators + topo.targets)}
    forward = {
        ini: {t: (node_ids[t], routes.route(ini, t)) for t in topo.targets}
        for ini in topo.initiators
    }
    reverse = {
        t: {node_ids[ini]: routes.route(t, ini) for ini in topo.initiators}
        for t in topo.targets
    }
    return RoutingTables(
        address_map=AddressMap(topo.targets),
        node_ids=node_ids,
        forward=forward,
        reverse=reverse,
    )


def render_routing_tables(tables: RoutingTables) -> str:
    """Human/tool-readable text dump of every LUT."""
    lines: List[str] = ["# xpipes routing tables", ""]
    for ini, entries in sorted(tables.forward.items()):
        lines.append(f"[initiator {ini} id={tables.node_ids[ini]}]")
        for target, (dest_id, route) in sorted(entries.items()):
            base, end = tables.address_map.region_of(target)
            ports = ",".join(str(p) for p in route)
            lines.append(
                f"  {target:<12} id={dest_id:<3} addr=[{base:#010x},{end:#010x}) "
                f"route=<{ports}>"
            )
        lines.append("")
    for target, entries in sorted(tables.reverse.items()):
        lines.append(f"[target {target} id={tables.node_ids[target]}]")
        for ini_id, route in sorted(entries.items()):
            ports = ",".join(str(p) for p in route)
            lines.append(f"  initiator id={ini_id:<3} route=<{ports}>")
        lines.append("")
    return "\n".join(lines)
