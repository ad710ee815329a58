"""Ablation A10 -- the paper's signature choice: ACK/NACK vs credits.

xpipes Lite pairs an output-queued switch with go-back-N ACK/NACK
retransmission; the classical alternative is an input-buffered switch
with credit-based backpressure.  This ablation runs both disciplines on
identical meshes and workloads:

* on **clean links**, both deliver everything; credits waste no link
  bandwidth on retransmissions while ACK/NACK's NACK-rewind cascades
  resend flits under contention;
* on **unreliable links**, credits are simply not an option (the
  builder rejects the combination), while ACK/NACK keeps delivering --
  which is the paper's justification for its choice.

Shape claims: 100% delivery in both modes at BER 0; credit mode carries
fewer link flits for the same work at high load; latency is comparable
at low load; credit mode refuses error injection.
"""

from benchmarks._common import emit

from repro.core.config import LinkConfig
from repro.network.noc import Noc, NocBuildConfig
from repro.network.topology import attach_round_robin, mesh
from repro.network.traffic import UniformRandomTraffic
from repro.sim.kernel import SimulationError

TXNS = 40


def run_mode(mode, rate):
    topo = mesh(2, 2)
    cpus, mems = attach_round_robin(topo, 3, 2)
    noc = Noc(topo, NocBuildConfig(flow_control=mode))
    noc.populate(
        {c: UniformRandomTraffic(mems, rate, seed=120 + i)
         for i, c in enumerate(cpus)},
        max_transactions=TXNS,
    )
    noc.run_until_drained(max_cycles=2_000_000)
    return {
        "completed": noc.total_completed(),
        "latency": noc.aggregate_latency().mean(),
        "flits": noc.total_flits_carried(),
        "retrans": noc.total_retransmissions(),
    }


def rows(runner):
    results = {}
    for rate, label in ((0.03, "low load"), (0.25, "high load")):
        for mode in ("ack_nack", "credit"):
            results[(mode, label)] = run_mode(mode, rate)
    lines = [
        "A10: flow control disciplines on identical workloads (BER 0)",
        f"{'mode':<10} {'load':<10} {'delivered':>10} {'mean lat':>9} "
        f"{'link flits':>11} {'retrans':>8}",
    ]
    for (mode, label), r in results.items():
        lines.append(
            f"{mode:<10} {label:<10} {r['completed']:>6}/{3 * TXNS:<3} "
            f"{r['latency']:>9.1f} {r['flits']:>11} {r['retrans']:>8}"
        )
    from repro.core.config import NocParameters, SwitchConfig
    from repro.synth import credit_switch_area_mm2, switch_area_mm2

    p = NocParameters(flit_width=32)
    c = SwitchConfig(4, 4)
    a_ack = switch_area_mm2(c, p)
    a_cr = credit_switch_area_mm2(c, p)
    lines.append("")
    lines.append(
        f"silicon: 4x4 32b switch {a_ack:.3f} mm2 (ack/nack) vs "
        f"{a_cr:.3f} mm2 (credit): +{a_ack / a_cr - 1:.0%} buffer area "
        "buys error tolerance"
    )
    lines.append(
        "unreliable links: credit mode rejected by construction; "
        "ack_nack delivers (see F10)"
    )
    return lines, (results,)


def check_shape(results):
    for r in results.values():
        assert r["completed"] == 3 * TXNS
    # Credits never retransmit; ACK/NACK does under contention.
    hi_ack = results[("ack_nack", "high load")]
    hi_cr = results[("credit", "high load")]
    assert hi_cr["retrans"] == 0
    assert hi_ack["retrans"] > 0
    # The retransmissions are real link traffic: credits move the same
    # payload with fewer flit-hops.
    assert hi_cr["flits"] < hi_ack["flits"]
    # At low load the disciplines are latency-comparable.
    lo_ack = results[("ack_nack", "low load")]
    lo_cr = results[("credit", "low load")]
    assert abs(lo_cr["latency"] - lo_ack["latency"]) <= 0.3 * abs(lo_ack["latency"])
    # ACK/NACK pays a real silicon premium for its retransmission
    # buffers and staging.
    from repro.core.config import NocParameters, SwitchConfig
    from repro.synth import credit_switch_area_mm2, switch_area_mm2

    p = NocParameters(flit_width=32)
    c = SwitchConfig(4, 4)
    assert switch_area_mm2(c, p) > 1.3 * credit_switch_area_mm2(c, p)
    # And the qualitative difference: credits refuse unreliable links.
    topo = mesh(2, 2)
    attach_round_robin(topo, 1, 1)
    try:
        Noc(topo, NocBuildConfig(
            flow_control="credit", link=LinkConfig(error_rate=0.01)
        ))
    except SimulationError:
        pass
    else:
        raise AssertionError("credit mode must refuse unreliable links")


def main(runner):
    lines, data = rows(runner)
    emit("a10_flow_control", lines)
    check_shape(*data)
