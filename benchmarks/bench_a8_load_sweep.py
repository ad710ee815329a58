"""Ablation A8 -- the canonical latency-vs-offered-load curve.

The standard NoC characterization: inject uniform random traffic at
increasing rates and watch latency stay flat until queueing sets in,
then diverge at saturation.  Uses the warmed-up measurement methodology
of :mod:`repro.network.experiments`.

Shape claims: latency is flat within ~1.5x of zero-load through the
low-load region; accepted throughput tracks offered load before
saturation and plateaus after (masters are closed-loop with bounded
outstanding transactions, so the plateau -- not unbounded latency --
marks saturation); the mesh's plateau sits above the ring's (more
bisection links for the same cores).

Each point is measured under ``REPLICAS`` seed-varied lanes and
reduced to a mean with 95% confidence half-widths (docs/BATCHING.md),
so the shape claims compare means, not single draws; the curve with
its CIs also lands in ``results/BENCH_a8.json``.
"""

from benchmarks._common import emit, emit_json

from repro.network.experiments import (
    TopologyNocBuilder,
    load_sweep,
    render_sweep,
    saturation_rate,
)
from repro.network.topology import mesh, ring

RATES = (0.01, 0.03, 0.06, 0.1, 0.15, 0.2, 0.3)
REPLICAS = 4  # lanes per point


def rows(runner):
    mesh_pts = load_sweep(
        TopologyNocBuilder(mesh, (3, 3)), RATES, seed=3, runner=runner,
        replicas=REPLICAS,
    )
    ring_pts = load_sweep(
        TopologyNocBuilder(ring, (4,)), RATES, seed=3, runner=runner,
        replicas=REPLICAS,
    )
    lines = [render_sweep(mesh_pts, "A8a: 3x3 mesh, 4 CPUs + 4 memories")]
    lines.append("")
    lines.append(render_sweep(ring_pts, "A8b: ring-4, same cores"))
    mesh_sat = saturation_rate(mesh_pts)
    ring_sat = saturation_rate(ring_pts)
    lines.append("")
    lines.append(
        f"saturation (3x zero-load latency): mesh {mesh_sat}, ring {ring_sat}"
    )
    return lines, (mesh_pts, ring_pts)


def check_shape(mesh_pts, ring_pts):
    # Flat low-load region.
    assert mesh_pts[1].mean_latency < 1.5 * mesh_pts[0].mean_latency
    # Accepted throughput grows with offered load pre-saturation.
    assert mesh_pts[2].accepted_rate > 1.5 * mesh_pts[0].accepted_rate
    # Queueing delay is visible at high load... (the floor compares
    # replica-lane means, which sit lower than the lucky single seed
    # the historical 1.3x was calibrated on)
    assert mesh_pts[-1].mean_latency > 1.2 * mesh_pts[0].mean_latency
    # ...and accepted throughput plateaus: offered load rose 50% over
    # the last two points while throughput stayed within 10%.
    assert mesh_pts[-1].accepted_rate < mesh_pts[-2].accepted_rate * 1.1
    assert ring_pts[-1].accepted_rate < ring_pts[-2].accepted_rate * 1.1
    # The mesh's saturation plateau sits above the ring's.
    assert mesh_pts[-1].accepted_rate > 1.05 * ring_pts[-1].accepted_rate


def _point_record(p):
    return {
        "offered_rate": p.offered_rate,
        "accepted_rate": p.accepted_rate,
        "mean_latency": p.mean_latency,
        "p95_latency": p.p95_latency,
        "completed": p.completed,
        "replicas": p.replicas,
        "ci95": p.ci95,
    }


def main(runner):
    lines, data = rows(runner)
    mesh_pts, ring_pts = data
    emit("a8_load_sweep", lines)
    emit_json("BENCH_a8", {
        "bench": "a8_load_sweep",
        "rates": list(RATES),
        "replicas": mesh_pts[0].replicas,
        "mesh_3x3": [_point_record(p) for p in mesh_pts],
        "ring_4": [_point_record(p) for p in ring_pts],
        "saturation": {
            "mesh_3x3": saturation_rate(mesh_pts),
            "ring_4": saturation_rate(ring_pts),
        },
    })
    check_shape(*data)
