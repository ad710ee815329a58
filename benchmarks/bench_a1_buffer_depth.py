"""Ablation A1 -- switch output-queue depth.

The output queue is the switch's only buffering ("buffering for
performance") and the dominant area term.  This ablation sweeps the
depth under contended traffic, exposing the latency/area tradeoff the
class-template parameter exists for.

Shape claims: deeper queues reduce NACK pressure (fewer rejected
flits) and mean latency down to a knee, while area grows linearly --
past the knee you pay silicon for nothing.
"""

from benchmarks._common import emit

from repro.core.config import NocParameters, SwitchConfig
from repro.network.noc import Noc, NocBuildConfig
from repro.network.topology import attach_round_robin, mesh
from repro.network.traffic import PermutationTraffic
from repro.synth import switch_area_mm2

DEPTHS = (2, 4, 6, 10, 16)


def run_depth(depth):
    # One hot, slow memory: backpressure propagates into the switch
    # queues, so depth actually matters.
    topo = mesh(2, 2)
    cpus, mems = attach_round_robin(topo, 3, 1)
    noc = Noc(topo, NocBuildConfig(buffer_depth=depth))
    noc.populate(
        {c: PermutationTraffic("mem0", 0.35, seed=40 + i) for i, c in enumerate(cpus)},
        wait_states=6,
        max_transactions=40,
    )
    noc.run_until_drained(max_cycles=2_000_000)
    rejected = sum(
        r.rejected_flits for sw in noc.switches.values() for r in sw.receivers
    )
    area = switch_area_mm2(
        SwitchConfig(4, 4, buffer_depth=depth), NocParameters(flit_width=32)
    )
    return noc.aggregate_latency().mean(), rejected, area


def rows(runner):
    lines = [
        "A1: output queue depth ablation (2x2 mesh, contended uniform traffic)",
        f"{'depth':>6} {'mean lat':>9} {'rejected':>9} {'4x4 area':>9}",
    ]
    data = {}
    for d in DEPTHS:
        lat, rej, area = run_depth(d)
        data[d] = (lat, rej, area)
        lines.append(f"{d:>6} {lat:>9.1f} {rej:>9} {area:>9.4f}")
    return lines, (data,)


def check_shape(data):
    areas = [data[d][2] for d in DEPTHS]
    assert areas == sorted(areas), "area grows with depth"
    # Depth relieves NACK pressure: the shallowest queue rejects most,
    # and the curve flattens at a knee (extra depth buys ~nothing).
    assert data[2][1] > 1.5 * data[6][1]
    assert data[16][1] <= data[6][1] * 1.1
    # Latency at the knee is no worse than the starved case.
    assert data[16][0] <= data[2][0] * 1.05


def main(runner):
    lines, data = rows(runner)
    emit("a1_buffer_depth", lines)
    check_shape(*data)
