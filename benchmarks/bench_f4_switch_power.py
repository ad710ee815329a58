"""F4 -- Switch synthesis power (mW).

Paper figure: "Switch Synthesis Results -- Power (mW)".  Shape claims:
power grows with radix and flit width, tracks area at fixed frequency,
and lands in the tens of mW for 130 nm switches at ~1 GHz.
"""

from benchmarks._common import FLIT_WIDTHS, emit

from repro.core.config import NocParameters, SwitchConfig
from repro.synth import switch_max_freq_mhz, switch_power_mw

RADIXES = ((4, 4), (5, 5), (6, 4), (6, 6))


def rows(runner):
    lines = [
        "F4: switch power (mW) vs radix and flit width (@ min(1 GHz, fmax))",
        f"{'config':>7} " + " ".join(f"{w:>8}b" for w in FLIT_WIDTHS),
    ]
    data = {}
    for n_in, n_out in RADIXES:
        cfg = SwitchConfig(n_inputs=n_in, n_outputs=n_out)
        cells = []
        for w in FLIT_WIDTHS:
            p = NocParameters(flit_width=w)
            f = min(1000.0, switch_max_freq_mhz(cfg, p))
            power = switch_power_mw(cfg, p, f)
            data[(n_in, n_out, w)] = power
            cells.append(f"{power:>9.2f}")
        lines.append(f"{cfg.label():>7} " + " ".join(cells))
    return lines, (data,)


def check_shape(data):
    for n_in, n_out in RADIXES:
        powers = [data[(n_in, n_out, w)] for w in FLIT_WIDTHS]
        assert powers == sorted(powers), "power grows with flit width"
    for w in FLIT_WIDTHS:
        assert data[(4, 4, w)] < data[(5, 5, w)] < data[(6, 6, w)]
    assert 10.0 < data[(4, 4, 32)] < 60.0, "tens of mW at 1 GHz, 130 nm"


def main(runner):
    lines, data = rows(runner)
    emit("f4_switch_power", lines)
    check_shape(*data)
