"""F7 -- "Shift Efforts at a Higher Abstraction Layer": topology tradeoffs.

Paper figure: for one application, different xpipes topologies trade
clock frequency, area and cycle count -- e.g. 925 MHz / 0.51 mm²
(+10% performance) vs 850 MHz / 0.42 mm² (-14% area) vs a
lower-frequency design with fewer clock cycles.  The quick estimation
loop (mapping + floorplan + synthesis models) makes these tradeoffs
visible without running synthesis.

Shape claims: the candidates genuinely trade off -- no single topology
wins frequency, area and cycle count simultaneously -- and the
estimator ranks a sensible winner.
"""

from benchmarks._common import emit

from repro.flow import demo_multimedia_soc, select_topology
from repro.flow.selection import evaluate_candidate
from repro.network.topology import mesh, ring, star


def candidates():
    # Three styles the paper's sample-topologies slide contrasts:
    # a grid (moderate radix, high clock), a hub (few cycles, big
    # low-clock switch), and a ring (small switches, more hops).
    return [mesh(2, 3), star(3), ring(4)]


def rows(runner):
    _, _, core_graph = demo_multimedia_soc()
    results = select_topology(core_graph, candidates(), target_freq_mhz=1600, seed=4)
    lines = [
        "F7: topology tradeoffs for the multimedia SoC",
        f"{'topology':<16} {'freq':>9} {'area':>11} {'power':>11} "
        f"{'cycles':>10} {'latency':>10}",
    ]
    for r in results:
        lines.append(r.row())
    best = results[0]
    lines.append("")
    lines.append(
        f"selected: {best.name} "
        f"({best.freq_mhz:.0f} MHz, {best.area_mm2:.3f} mm2, "
        f"{best.mean_cycles:.1f} cycles -> {best.mean_latency_ns:.2f} ns)"
    )
    return lines, (results,)


def check_shape(results):
    assert len(results) == 3
    by_name = {r.name: r for r in results}
    freqs = {n: r.freq_mhz for n, r in by_name.items()}
    areas = {n: r.area_mm2 for n, r in by_name.items()}
    cycles = {n: r.mean_cycles for n, r in by_name.items()}
    # Real tradeoffs, as in the paper's sample-topologies slide: the
    # frequency winner is not also the cycle-count winner.
    f_best = max(freqs, key=freqs.get)
    c_best = min(cycles, key=cycles.get)
    assert f_best != c_best, (
        "candidates must expose a frequency-vs-cycles tradeoff"
    )
    # The biggest fabric (most switches) pays the most area.
    assert areas["mesh2x3"] == max(areas.values())
    # All candidates land within ~25% of each other on latency -- the
    # tradeoffs are real but none is catastrophic (paper: +10% perf /
    # -14% area style deltas).
    lats = [r.mean_latency_ns for r in results]
    assert max(lats) / min(lats) < 1.3
    # Results come back sorted best-first by the default objective.
    scores = [r.mean_latency_ns * r.area_mm2 for r in results]
    assert scores == sorted(scores)


def main(runner):
    lines, data = rows(runner)
    emit("f7_topology_tradeoffs", lines)
    check_shape(*data)
