"""Design-space exploration: the paper's concluding claim, as a tool.

"Allows faster & more accurate design space exploration" -- this module
is that loop: sweep topology x flit width x buffer depth for one
application, estimate every point with the synthesis models (seconds,
not synthesis runs), and keep the Pareto frontier over
(latency, area, power).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.core.config import NocParameters
from repro.flow.selection import MappedFabric, estimate_candidate
from repro.flow.taskgraph import CoreGraph
from repro.network.noc import NocBuildConfig
from repro.network.topology import Topology


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated configuration of the design space."""

    topology_name: str
    flit_width: int
    buffer_depth: int
    latency_ns: float
    area_mm2: float
    power_mw: float
    freq_mhz: float
    feasible: bool

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance over (latency, area, power); feasibility is
        a hard gate -- an infeasible point never dominates."""
        if not self.feasible:
            return False
        if other.feasible:
            no_worse = (
                self.latency_ns <= other.latency_ns
                and self.area_mm2 <= other.area_mm2
                and self.power_mw <= other.power_mw
            )
            better = (
                self.latency_ns < other.latency_ns
                or self.area_mm2 < other.area_mm2
                or self.power_mw < other.power_mw
            )
            return no_worse and better
        return True  # feasible always dominates infeasible

    def row(self) -> str:
        flag = " " if self.feasible else "!"
        return (
            f"{flag}{self.topology_name:<12} flit{self.flit_width:<4} "
            f"buf{self.buffer_depth:<3} {self.latency_ns:>7.2f} ns "
            f"{self.area_mm2:>7.3f} mm2 {self.power_mw:>8.1f} mW "
            f"@{self.freq_mhz:>5.0f} MHz"
        )


def _evaluate_design_point(point: tuple) -> DesignPoint:
    """Evaluate one (core_graph, fabric, width, depth, knobs) combo.

    Module-level so an :class:`repro.flow.runner.ExperimentRunner` can
    pickle it into worker processes and hash it for the result cache.
    Slot 1 is a :class:`MappedFabric` the points of one row share (see
    :func:`design_rows`), or a bare fabric, mapped on the spot: the key
    and the result are the same either way.
    """
    core_graph, fabric, width, depth, target_freq_mhz, max_radix, seed, anneal_iterations = point
    mapped = fabric if isinstance(fabric, MappedFabric) else MappedFabric(
        core_graph, fabric, max_radix, anneal_iterations, seed
    )
    cfg = NocBuildConfig(
        params=NocParameters(flit_width=width),
        buffer_depth=depth,
    )
    result = estimate_candidate(mapped, cfg, target_freq_mhz)
    return DesignPoint(
        topology_name=mapped.fabric.name,
        flit_width=width,
        buffer_depth=depth,
        latency_ns=result.mean_latency_ns,
        area_mm2=result.area_mm2,
        power_mw=result.power_mw,
        freq_mhz=result.freq_mhz,
        feasible=result.feasible,
    )


def design_rows(
    core_graph: CoreGraph,
    candidates: Sequence,
    flit_widths: Iterable[int] = (16, 32, 64),
    buffer_depths: Iterable[int] = (4, 6),
    target_freq_mhz: float = 1000.0,
    max_radix: int = 8,
    seed: int = 0,
    anneal_iterations: int = 600,
) -> List[List[tuple]]:
    """The cross product as :func:`_evaluate_design_point` argument
    tuples: one row per candidate, width then depth within it.  A row's
    tuples share one :class:`MappedFabric`, so whoever evaluates a row
    in one process (``runner.map_rows``) maps its fabric once; a
    candidate that is a stand-in (key text, a name) has nothing to map
    and stays bare.  The one definition of combo order and content:
    :func:`explore_design_space` and the query service
    (``repro.serve.service``) both key the store by these tuples, so
    they share it rather than re-deriving it."""
    rows = []
    for fabric in candidates:
        if isinstance(fabric, Topology):
            fabric = MappedFabric(core_graph, fabric, max_radix, anneal_iterations, seed)
        rows.append([
            (core_graph, fabric, width, depth, target_freq_mhz, max_radix, seed, anneal_iterations)
            for width in flit_widths
            for depth in buffer_depths
        ])
    return rows


def design_combos(*args, **kwargs) -> List[tuple]:
    """:func:`design_rows` (whose arguments these are), flattened."""
    return [point for row in design_rows(*args, **kwargs) for point in row]


def explore_design_space(
    core_graph: CoreGraph,
    candidates: Sequence[Topology],
    flit_widths: Iterable[int] = (16, 32, 64),
    buffer_depths: Iterable[int] = (4, 6),
    target_freq_mhz: float = 1000.0,
    max_radix: int = 8,
    seed: int = 0,
    anneal_iterations: int = 600,
    runner=None,
) -> List[DesignPoint]:
    """Evaluate the full cross product; returns every point.

    Each fabric is mapped once and each of its configurations estimated
    from that mapping.  An optional ``runner``
    (:class:`repro.flow.runner.ExperimentRunner`) caches the sweep a
    point at a time and farms it a fabric at a time; both Topology and
    CoreGraph expose the ``cache_token()`` the cache keys need.
    """
    if not candidates:
        raise ValueError("need at least one candidate topology")
    rows = design_rows(
        core_graph, candidates, flit_widths, buffer_depths,
        target_freq_mhz, max_radix, seed, anneal_iterations,
    )
    if runner is None:
        results = [[_evaluate_design_point(p) for p in row] for row in rows]
    else:
        results = runner.map_rows(_evaluate_design_point, rows, label="dse")
    return [point for row in results for point in row]


def pareto_frontier(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """Non-dominated points, sorted by latency.

    Comparison is by *value*, never identity: points restored from the
    result store or another process are equal to (but
    not the same object as) their originals, and value-equal duplicates
    collapse to one frontier entry instead of distorting it.
    """
    unique = list(dict.fromkeys(points))  # value-dedup, order preserved
    frontier = [
        p for p in unique if not any(q.dominates(p) for q in unique if q != p)
    ]
    frontier.sort(key=lambda p: (p.latency_ns, p.area_mm2))
    return frontier


def render_space(
    points: Sequence[DesignPoint],
    frontier: Optional[Sequence[DesignPoint]] = None,
    title: str = "design space",
) -> str:
    frontier = list(frontier or [])
    # Membership by value, not id(): a frozen DesignPoint hashes by its
    # field values, so points that round-tripped through the cache, the
    # result store or a worker process still earn their ``*``.
    on_frontier = set(frontier)
    lines = [f"{title} ({len(points)} points, {len(frontier)} on the frontier)"]
    for p in sorted(points, key=lambda p: (p.topology_name, p.flit_width, p.buffer_depth)):
        marker = "*" if p in on_frontier else " "
        lines.append(f" {marker}{p.row()}")
    return "\n".join(lines)
