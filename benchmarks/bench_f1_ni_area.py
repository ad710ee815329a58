"""F1 -- NI synthesis area (mm²) vs flit width.

Paper figure: "NI Synthesis Results -- Area (mm²)" for the initiator
and target NI across flit widths, synthesized at the 1 GHz mesh
operating point.  Shape claims: area grows with flit width, the target
NI sits above the initiator NI, and NIs stay well below switch areas.
"""

from benchmarks._common import FLIT_WIDTHS, emit

from repro.core.config import NiConfig, NocParameters, SwitchConfig
from repro.synth import ni_area_mm2, switch_area_mm2


def rows(runner):
    lines = [
        "F1: NI area (mm2) vs flit width @ 1 GHz target",
        f"{'flit':>5} {'initiator':>10} {'target':>10}",
    ]
    data = {}
    for w in FLIT_WIDTHS:
        cfg = NiConfig(params=NocParameters(flit_width=w))
        init = ni_area_mm2(cfg, initiator=True, n_destinations=11, target_freq_mhz=1000)
        targ = ni_area_mm2(cfg, initiator=False, n_destinations=8, target_freq_mhz=1000)
        data[w] = (init, targ)
        lines.append(f"{w:>5} {init:>10.4f} {targ:>10.4f}")
    return lines, (data,)


def check_shape(data):
    inits = [data[w][0] for w in FLIT_WIDTHS]
    targs = [data[w][1] for w in FLIT_WIDTHS]
    assert inits == sorted(inits), "initiator NI area must grow with flit width"
    assert targs == sorted(targs), "target NI area must grow with flit width"
    for w in FLIT_WIDTHS:
        assert data[w][1] > data[w][0], "target NI above initiator NI"
        sw = switch_area_mm2(
            SwitchConfig(4, 4), NocParameters(flit_width=w), target_freq_mhz=1000
        )
        assert data[w][1] < sw, "NIs stay below the 4x4 switch"


def main(runner):
    lines, data = rows(runner)
    emit("f1_ni_area", lines)
    check_shape(*data)
