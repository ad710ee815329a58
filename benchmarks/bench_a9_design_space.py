"""Ablation A9 -- design-space exploration and its Pareto frontier.

The paper's conclusion: the synthesis-oriented library "allows faster &
more accurate design space exploration".  This bench *is* that loop --
topology x flit width x buffer depth for the multimedia SoC, every
point estimated by the models in milliseconds, reduced to the Pareto
frontier over (latency, area, power).

Shape claims: the frontier is a genuine curve (more than one point: no
single design wins everything); flit width moves points along the
latency/area tradeoff; deeper buffers never appear on the frontier for
this contention-free estimate (they cost area and buy nothing the
estimator can see -- the A1 ablation shows what they do buy).
"""

from benchmarks._common import emit

from repro.flow import demo_multimedia_soc
from repro.flow.dse import explore_design_space, pareto_frontier, render_space
from repro.network.topology import mesh, ring, star


def rows(runner):
    _, _, core_graph = demo_multimedia_soc()
    points = explore_design_space(
        core_graph,
        [mesh(2, 2), star(3), ring(4)],
        flit_widths=(16, 32, 64),
        buffer_depths=(4, 6),
        seed=2,
        anneal_iterations=400,
        runner=runner,
    )
    frontier = pareto_frontier(points)
    lines = [render_space(points, frontier, "A9: multimedia SoC design space")]
    best_latency = min(frontier, key=lambda p: p.latency_ns)
    best_area = min(frontier, key=lambda p: p.area_mm2)
    lines.append("")
    lines.append(f"fastest : {best_latency.row()}")
    lines.append(f"smallest: {best_area.row()}")
    return lines, (points, frontier)


def check_shape(points, frontier):
    assert len(points) == 3 * 3 * 2
    # A real tradeoff: the frontier holds multiple designs.
    assert len(frontier) >= 3
    # The latency and area champions differ.
    best_latency = min(frontier, key=lambda p: p.latency_ns)
    best_area = min(frontier, key=lambda p: p.area_mm2)
    assert best_latency != best_area
    assert best_latency.flit_width > best_area.flit_width
    # Deep buffers are never frontier-optimal under the static estimate.
    assert all(p.buffer_depth == 4 for p in frontier)
    # Every frontier point is feasible.
    assert all(p.feasible for p in frontier)


def main(runner):
    lines, data = rows(runner)
    emit("a9_design_space", lines)
    check_shape(*data)
