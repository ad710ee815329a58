"""Ablation A2 -- arbitration policy: fixed priority vs round robin.

The paper offers both per output port.  Fixed priority is the cheaper
circuit but starves high-index inputs under contention; round robin is
strongly fair.  We hammer one hot target from several masters and
compare per-master latency spread.

Shape claims: round robin keeps the worst master's mean latency close
to the best master's; fixed priority opens a much wider gap (and its
most-favoured master beats everyone).
"""

from benchmarks._common import emit

from repro.core.config import ArbitrationPolicy
from repro.network.noc import Noc, NocBuildConfig
from repro.network.topology import star
from repro.network.traffic import PermutationTraffic

N_MASTERS = 3


def run_policy(policy):
    # A star keeps every master equidistant from the shared target, so
    # any latency spread is the arbiter's doing, not the topology's.
    topo = star(N_MASTERS)
    cpus = []
    for i in range(N_MASTERS):
        name = f"cpu{i}"
        topo.add_initiator(name)
        topo.attach(name, f"leaf_{i}")
        cpus.append(name)
    topo.add_target("mem0")
    topo.attach("mem0", "hub")
    noc = Noc(topo, NocBuildConfig(arbitration=policy))
    for i, c in enumerate(cpus):
        noc.add_traffic_master(
            c,
            PermutationTraffic("mem0", rate=0.5, seed=70 + i),
            max_transactions=30,
        )
    noc.add_memory_slave("mem0", wait_states=0)
    noc.run_until_drained(max_cycles=2_000_000)
    return {c: noc.masters[c].latency.mean() for c in cpus}


def rows(runner):
    rr = run_policy(ArbitrationPolicy.ROUND_ROBIN)
    fx = run_policy(ArbitrationPolicy.FIXED_PRIORITY)
    lines = [
        "A2: arbitration policy under a shared hot target",
        f"{'master':<8} {'round robin':>12} {'fixed prio':>12}",
    ]
    for c in rr:
        lines.append(f"{c:<8} {rr[c]:>12.1f} {fx[c]:>12.1f}")
    rr_spread = max(rr.values()) / min(rr.values())
    fx_spread = max(fx.values()) / min(fx.values())
    lines.append("")
    lines.append(f"latency spread (worst/best): RR {rr_spread:.2f}, fixed {fx_spread:.2f}")
    return lines, (rr, fx)


def check_shape(rr, fx):
    rr_spread = max(rr.values()) / min(rr.values())
    fx_spread = max(fx.values()) / min(fx.values())
    assert fx_spread > rr_spread, "fixed priority must be less fair"
    assert rr_spread < 1.2, "round robin keeps equidistant masters even"
    assert fx_spread > 1.4, "fixed priority visibly starves the last input"
    # The starved master is the one behind the highest-priority inputs.
    worst = max(fx, key=fx.get)
    assert worst == f"cpu{N_MASTERS - 1}"


def main(runner):
    lines, data = rows(runner)
    emit("a2_arbitration", lines)
    check_shape(*data)
