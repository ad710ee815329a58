"""F2 -- NI synthesis power (mW) vs flit width.

Paper figure: "NI Synthesis Results -- Power (mW)" at the 1 GHz
operating point.  Shape claims: power grows with flit width; target NI
above initiator NI; same ordering as the area figure (power tracks
area at fixed frequency).
"""

from benchmarks._common import FLIT_WIDTHS, emit

from repro.core.config import NiConfig, NocParameters
from repro.synth import ni_power_mw


def rows(runner):
    lines = [
        "F2: NI power (mW) vs flit width @ 1 GHz",
        f"{'flit':>5} {'initiator':>10} {'target':>10}",
    ]
    data = {}
    for w in FLIT_WIDTHS:
        cfg = NiConfig(params=NocParameters(flit_width=w))
        init = ni_power_mw(cfg, 1000.0, initiator=True, n_destinations=11)
        targ = ni_power_mw(cfg, 1000.0, initiator=False, n_destinations=8)
        data[w] = (init, targ)
        lines.append(f"{w:>5} {init:>10.2f} {targ:>10.2f}")
    return lines, (data,)


def check_shape(data):
    inits = [data[w][0] for w in FLIT_WIDTHS]
    targs = [data[w][1] for w in FLIT_WIDTHS]
    assert inits == sorted(inits)
    assert targs == sorted(targs)
    for w in FLIT_WIDTHS:
        assert data[w][1] > data[w][0]
    # Power at 1 GHz lands in single-to-low-double-digit mW, as typical
    # for 130 nm NIs.
    assert 1.0 < data[16][0] < 20.0
    assert data[128][1] < 60.0


def main(runner):
    lines, data = rows(runner)
    emit("f2_ni_power", lines)
    check_shape(*data)
