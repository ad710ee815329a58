"""F10 -- ACK/NACK flow & error control on unreliable links.

Architecture claim: the switch is "designed for pipelined, unreliable
links" -- its go-back-N ACK/NACK retransmission delivers every
transaction intact whatever the link bit-error rate, trading latency
and link bandwidth for reliability.

We sweep per-flit corruption probability on a 2x2 mesh and report
delivery, mean latency and the retransmission overhead.

Shape claims: delivery stays 100% at every BER; retransmissions and
latency grow monotonically with BER; at BER=0 there is no retransmission
tax beyond contention.
"""

from benchmarks._common import emit

from repro.core.config import LinkConfig
from repro.network.noc import Noc, NocBuildConfig
from repro.network.topology import attach_round_robin, mesh
from repro.network.traffic import UniformRandomTraffic

BERS = (0.0, 0.001, 0.005, 0.02, 0.05)
TXNS = 30


def run_ber(ber):
    topo = mesh(2, 2)
    cpus, mems = attach_round_robin(topo, 2, 2)
    noc = Noc(topo, NocBuildConfig(link=LinkConfig(stages=1, error_rate=ber), seed=17))
    noc.populate(
        {c: UniformRandomTraffic(mems, 0.05, seed=60 + i) for i, c in enumerate(cpus)},
        max_transactions=TXNS,
    )
    noc.run_until_drained(max_cycles=3_000_000)
    completed = noc.total_completed()
    return {
        "completed": completed,
        "expected": 2 * TXNS,
        "latency": noc.aggregate_latency().mean(),
        "errors": noc.total_errors_injected(),
        "retrans": noc.total_retransmissions(),
        "flits": noc.total_flits_carried(),
    }


def rows(runner):
    lines = [
        "F10: delivery under unreliable links (2x2 mesh, ACK/NACK go-back-N)",
        f"{'BER':>7} {'delivered':>10} {'mean lat':>9} {'errors':>8} "
        f"{'retrans':>8} {'flits':>8}",
    ]
    series = {}
    for ber in BERS:
        r = run_ber(ber)
        series[ber] = r
        lines.append(
            f"{ber:>7.3f} {r['completed']:>4}/{r['expected']:<5} "
            f"{r['latency']:>9.1f} {r['errors']:>8} {r['retrans']:>8} {r['flits']:>8}"
        )
    return lines, (series,)


def check_shape(series):
    for ber, r in series.items():
        assert r["completed"] == r["expected"], f"lost transactions at BER {ber}"
    # Corruption grows with BER, and so does the retransmission tax.
    errors = [series[b]["errors"] for b in BERS]
    assert errors == sorted(errors)
    assert series[0.0]["errors"] == 0
    assert series[0.05]["retrans"] > series[0.001]["retrans"]
    # Latency pays for reliability.
    assert series[0.05]["latency"] > series[0.0]["latency"]


def main(runner):
    lines, data = rows(runner)
    emit("f10_error_control", lines)
    check_shape(*data)
