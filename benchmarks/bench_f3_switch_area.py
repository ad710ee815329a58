"""F3 -- Switch synthesis area (mm²).

Paper figure: "Switch Synthesis Results -- Area (mm²)" across switch
radix and flit width.  Shape claims: area grows with both radix and
flit width; flit width dominates (register files scale with width);
the 32-bit 4x4 instance sits near 0.1 mm².
"""

from benchmarks._common import FLIT_WIDTHS, emit

from repro.core.config import NocParameters, SwitchConfig
from repro.synth import switch_area_mm2, switch_max_freq_mhz

RADIXES = ((3, 3), (4, 4), (5, 5), (6, 4), (6, 6), (8, 8))


def rows(runner):
    lines = [
        "F3: switch area (mm2) vs radix and flit width (@ min(1 GHz, fmax))",
        f"{'config':>7} " + " ".join(f"{w:>8}b" for w in FLIT_WIDTHS),
    ]
    data = {}
    for n_in, n_out in RADIXES:
        cfg = SwitchConfig(n_inputs=n_in, n_outputs=n_out)
        cells = []
        for w in FLIT_WIDTHS:
            p = NocParameters(flit_width=w)
            f = min(1000.0, switch_max_freq_mhz(cfg, p))
            area = switch_area_mm2(cfg, p, target_freq_mhz=f)
            data[(n_in, n_out, w)] = area
            cells.append(f"{area:>9.4f}")
        lines.append(f"{cfg.label():>7} " + " ".join(cells))
    return lines, (data,)


def check_shape(data):
    for n_in, n_out in RADIXES:
        areas = [data[(n_in, n_out, w)] for w in FLIT_WIDTHS]
        assert areas == sorted(areas), "area grows with flit width"
    for w in FLIT_WIDTHS:
        assert data[(4, 4, w)] < data[(5, 5, w)] < data[(6, 6, w)] < data[(8, 8, w)]
        assert data[(6, 4, w)] > data[(4, 4, w)]
    assert 0.07 < data[(4, 4, 32)] < 0.13, "4x4 32b anchor near 0.1 mm2"


def main(runner):
    lines, data = rows(runner)
    emit("f3_switch_area", lines)
    check_shape(*data)
