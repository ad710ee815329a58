"""F8 -- "Comparison with old xpipes: lower latency (7 to 2 stage switches)".

The paper's headline architectural improvement: the redesigned xpipes
Lite switch is a 2-stage pipeline where the original xpipes switch took
7 stages.  We measure end-to-end OCP transaction latency on the same
3x3 mesh under identical light traffic with both switch generations.

Shape claims: the Lite switch cuts mean latency; the per-hop saving is
close to the 5 extra stages (paid on both the request and the response
path of every transaction).
"""

from benchmarks._common import emit

from repro.network.noc import Noc, NocBuildConfig
from repro.network.topology import attach_round_robin, mesh
from repro.network.traffic import PermutationTraffic


def run_generation(pipeline_stages):
    topo = mesh(3, 3)
    topo.add_initiator("cpu")
    topo.add_target("mem")
    topo.attach("cpu", "sw_0_0")
    topo.attach("mem", "sw_2_2")  # 5 switches on the DOR path
    noc = Noc(topo, NocBuildConfig(pipeline_stages=pipeline_stages))
    noc.add_traffic_master(
        "cpu",
        PermutationTraffic("mem", rate=0.02, seed=5),
        max_transactions=30,
    )
    noc.add_memory_slave("mem", wait_states=1)
    noc.run_until_drained(max_cycles=500_000)
    return noc.aggregate_latency()


def rows(runner):
    lite = run_generation(2)
    old = run_generation(7)
    lines = [
        "F8: switch pipeline depth vs transaction latency (3x3 mesh, 5-hop path)",
        f"{'generation':<24} {'stages':>7} {'mean':>8} {'min':>6} {'max':>6}",
        f"{'xpipes Lite':<24} {2:>7} {lite.mean():>8.1f} "
        f"{lite.minimum():>6} {lite.maximum():>6}",
        f"{'original xpipes':<24} {7:>7} {old.mean():>8.1f} "
        f"{old.minimum():>6} {old.maximum():>6}",
        "",
        f"latency saved: {old.mean() - lite.mean():.1f} cycles per transaction "
        f"({(1 - lite.mean() / old.mean()) * 100:.0f}%)",
    ]
    return lines, (lite, old)


def check_shape(lite, old):
    # 5 switches each way x 5 extra stages = 50 cycles of round-trip
    # pipeline on the old switch (minus the hop that ejects directly).
    saved = old.mean() - lite.mean()
    assert saved > 20, "deep pipeline must cost tens of cycles round trip"
    assert lite.mean() < old.mean()
    assert lite.minimum() < old.minimum()


def main(runner):
    lines, data = rows(runner)
    emit("f8_switch_latency", lines)
    check_shape(*data)
