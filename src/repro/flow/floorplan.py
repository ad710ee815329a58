"""Floorplanning: switch placement, wire lengths, link pipelining.

SunMap's floorplanner box.  Switches are placed on a coarse grid of
tiles; each tile is sized by the silicon attached to it (switch + its
NIs + core estimate).  Wire lengths follow Manhattan distance between
tile centres, and every link is assigned the pipeline stages needed to
close timing at the NoC's clock given a signal-propagation budget per
stage -- exactly the reasoning that makes the paper's switches
"designed for pipelined links".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.core.config import LinkConfig
from repro.network.topology import Topology

#: Reachable wire distance per clock at 1 GHz in a 130 nm process, mm.
#: Scales inversely with frequency: faster clocks reach shorter wires.
MM_PER_STAGE_AT_1GHZ = 2.0


@dataclass
class Floorplan:
    """Placement result: tile coordinates per switch plus wiring stats."""

    positions: Dict[str, Tuple[float, float]]  # switch -> (x, y) in mm
    tile_mm: float
    link_lengths_mm: Dict[Tuple[str, str], float] = field(default_factory=dict)

    @property
    def total_wirelength_mm(self) -> float:
        return sum(self.link_lengths_mm.values())

    def bounding_box_mm2(self) -> float:
        xs = [p[0] for p in self.positions.values()]
        ys = [p[1] for p in self.positions.values()]
        if not xs:
            return 0.0
        return (max(xs) - min(xs) + self.tile_mm) * (max(ys) - min(ys) + self.tile_mm)

    def stages_for(self, a: str, b: str, freq_mhz: float) -> int:
        """Pipeline stages the a-b link needs at an operating frequency."""
        length = self.link_lengths_mm.get((a, b)) or self.link_lengths_mm.get((b, a))
        if length is None:
            raise KeyError(f"no link between {a!r} and {b!r} in this floorplan")
        return stages_for_length(length, freq_mhz)

    def max_stages(self, freq_mhz: float) -> int:
        """Deepest link pipelining anywhere in the floorplan."""
        if not self.link_lengths_mm:
            return 1
        return max(
            stages_for_length(length, freq_mhz)
            for length in self.link_lengths_mm.values()
        )


def stages_for_length(length_mm: float, freq_mhz: float) -> int:
    """Repeater/pipeline stages needed for a wire at a clock frequency."""
    if length_mm < 0:
        raise ValueError("length must be non-negative")
    if freq_mhz <= 0:
        raise ValueError("frequency must be positive")
    reach = MM_PER_STAGE_AT_1GHZ * (1000.0 / freq_mhz)
    return max(1, math.ceil(length_mm / reach))


def _grid_dimensions(n: int) -> Tuple[int, int]:
    cols = math.ceil(math.sqrt(n))
    rows = math.ceil(n / cols)
    return rows, cols


def floorplan_topology(
    topology: Topology,
    tile_mm: float = 1.0,
    iterations: int = 1500,
    seed: int = 0,
) -> Floorplan:
    """Place switches on a tile grid minimizing weighted wirelength.

    Mesh-like topologies with coordinates are placed directly on their
    natural grid; anything else gets a simulated-annealing slot
    assignment on the smallest square grid that fits.
    """
    switches = topology.switches
    if not switches:
        raise ValueError("cannot floorplan an empty topology")

    if topology.coords and len(topology.coords) == len(switches):
        positions = {
            s: (c[0] * tile_mm, c[1] * tile_mm) for s, c in topology.coords.items()
        }
        return _finish(topology, positions, tile_mm)

    rows, cols = _grid_dimensions(len(switches))
    slots = [(x * tile_mm, y * tile_mm) for y in range(rows) for x in range(cols)]
    rng = random.Random(seed)
    order = list(switches)
    rng.shuffle(order)
    assign = {s: i for i, s in enumerate(order)}
    # Read once: the move loop walks no port list and no coordinate
    # (the slot-to-slot table is slots^2 floats, ~5 MB at 400 switches).
    edges = topology.edges
    dist = [[abs(ax - bx) + abs(ay - by) for bx, by in slots] for ax, ay in slots]

    def cost() -> float:
        total = 0.0
        for a, b in edges:
            total += dist[assign[a]][assign[b]]
        return total

    cur = cost()
    best_assign, best_cost = dict(assign), cur
    temp = max(cur / 10.0, 1.0)
    alpha = 0.998
    free_slots = list(range(len(switches), len(slots)))
    for _ in range(iterations):
        a = rng.choice(switches)
        if free_slots and rng.random() < 0.3:
            # Move to an empty slot.
            j = rng.choice(free_slots)
            old = assign[a]
            assign[a] = j
            new = cost()
            if new <= cur or rng.random() < math.exp((cur - new) / temp):
                free_slots.remove(j)
                free_slots.append(old)
                cur = new
            else:
                assign[a] = old
        else:
            b = rng.choice(switches)
            if a == b:
                continue
            assign[a], assign[b] = assign[b], assign[a]
            new = cost()
            if new <= cur or rng.random() < math.exp((cur - new) / temp):
                cur = new
            else:
                assign[a], assign[b] = assign[b], assign[a]
        if cur < best_cost:
            best_assign, best_cost = dict(assign), cur
        temp = max(temp * alpha, 1e-3)

    positions = {s: slots[i] for s, i in best_assign.items()}
    return _finish(topology, positions, tile_mm)


def _finish(
    topology: Topology,
    positions: Dict[str, Tuple[float, float]],
    tile_mm: float,
) -> Floorplan:
    plan = Floorplan(positions=positions, tile_mm=tile_mm)
    for a, b in topology.edges:
        ax, ay = positions[a]
        bx, by = positions[b]
        plan.link_lengths_mm[(a, b)] = abs(ax - bx) + abs(ay - by)
    return plan


def link_configs_from_floorplan(
    plan: Floorplan,
    freq_mhz: float,
    base: Optional[LinkConfig] = None,
) -> Dict[frozenset, LinkConfig]:
    """Per-link pipeline configurations implied by a floorplan.

    For each placed switch-to-switch wire, the stages needed to close
    timing at ``freq_mhz`` are computed from its Manhattan length; the
    result plugs straight into
    :attr:`repro.network.noc.NocBuildConfig.link_overrides`, closing
    the loop from floorplanning back into cycle-accurate simulation.
    NI attachment links are tile-local and keep the base config.
    """
    base = base or LinkConfig()
    overrides: Dict[frozenset, LinkConfig] = {}
    for (a, b), length in plan.link_lengths_mm.items():
        stages = stages_for_length(length, freq_mhz)
        if stages != base.stages:
            overrides[frozenset((a, b))] = replace(base, stages=stages)
    return overrides
