"""Ablation A4 -- link pipelining: frequency vs cycle count.

"Designed for pipelined links": long wires must be pipelined to keep
the clock high, and the ACK/NACK window stretches with them.  This
ablation measures the cycle cost of each extra link stage and combines
it with the floorplanner's wire model to show when pipelining wins:
at a fixed floorplan, a faster clock with deeper links can beat a
slower clock with combinational wires.

Shape claims: cycle latency grows ~linearly with link stages; the
retransmission window (and thus buffer area) grows too; converting to
nanoseconds at the frequency each wire length permits shows the
pipelined point beating the unpipelined one for long wires.
"""

from benchmarks._common import emit

from repro.core.config import LinkConfig
from repro.core.flow_control import window_for_link
from repro.flow.floorplan import MM_PER_STAGE_AT_1GHZ, stages_for_length
from repro.network.noc import Noc, NocBuildConfig
from repro.network.topology import attach_round_robin, mesh
from repro.network.traffic import UniformRandomTraffic

STAGES = (1, 2, 3, 4)


def run_stages(stages):
    topo = mesh(2, 2)
    cpus, mems = attach_round_robin(topo, 2, 2)
    noc = Noc(topo, NocBuildConfig(link=LinkConfig(stages=stages)))
    noc.populate(
        {c: UniformRandomTraffic(mems, 0.03, seed=90 + i) for i, c in enumerate(cpus)},
        max_transactions=25,
    )
    noc.run_until_drained(max_cycles=2_000_000)
    return noc.aggregate_latency().mean()


def rows(runner):
    lines = [
        "A4: link pipeline depth vs latency",
        f"{'stages':>7} {'mean lat cyc':>13} {'gbn window':>11}",
    ]
    lat = {}
    for s in STAGES:
        lat[s] = run_stages(s)
        lines.append(f"{s:>7} {lat[s]:>13.1f} {window_for_link(s):>11}")

    # Wire-length view: a 4 mm wire at 1 GHz needs pipelining; compare
    # end-to-end time for "slow clock, 1 stage" vs "full clock, piped".
    wire_mm = 4.0
    slow_clock = 1000.0 * MM_PER_STAGE_AT_1GHZ / wire_mm  # clock that makes 1 stage enough
    piped_stages = stages_for_length(wire_mm, 1000.0)
    t_slow = lat[1] / (slow_clock / 1000.0)
    t_piped = lat[min(piped_stages, max(STAGES))] / 1.0
    lines.append("")
    lines.append(
        f"{wire_mm:.0f} mm wires: unpipelined @ {slow_clock:.0f} MHz -> {t_slow:.0f} ns; "
        f"{piped_stages}-stage piped @ 1000 MHz -> {t_piped:.0f} ns"
    )
    return lines, (lat, (t_slow, t_piped))


def check_shape(lat, times):
    series = [lat[s] for s in STAGES]
    assert all(b > a for a, b in zip(series, series[1:])), "latency grows with stages"
    # Each extra stage costs a bounded, roughly constant number of
    # cycles (request + response paths x mean hop count).
    deltas = [b - a for a, b in zip(series, series[1:])]
    assert max(deltas) < 4 * min(deltas) + 8
    t_slow, t_piped = times
    assert t_piped < t_slow, "pipelining must win on long wires"


def main(runner):
    lines, data = rows(runner)
    emit("a4_link_pipelining", lines)
    check_shape(*data)
