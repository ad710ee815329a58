"""F6 -- "Full Custom vs Macro Based NoCs": area vs target frequency.

Paper figure: 32-bit 5x5 switches swept over synthesis target
frequency, area ranging ~0.100 to ~0.180 mm² up to ~1.5 GHz.  Shape
claims: the curve is monotonically increasing, flat below the relaxed
frequency, superlinear near the maximum, with a ~1.8x total span and a
maximum frequency near 1.5 GHz.
"""

from benchmarks._common import emit

from repro.core.config import NocParameters, SwitchConfig
from repro.synth import frequency_area_curve, switch_max_freq_mhz

FREQS = list(range(100, 1800, 100))


def rows(runner):
    cfg = SwitchConfig(n_inputs=5, n_outputs=5)
    p = NocParameters(flit_width=32)
    curve = frequency_area_curve(cfg, p, FREQS)
    fmax = switch_max_freq_mhz(cfg, p)
    lines = [
        "F6: 32-bit 5x5 switch -- area vs synthesis target frequency",
        f"{'MHz':>6} {'area mm2':>9}",
    ]
    for f, a in curve:
        lines.append(f"{f:>6.0f} {a:>9.4f}")
    lines.append(f"fmax = {fmax:.0f} MHz (paper curve extends to ~1500 MHz)")
    return lines, (curve, fmax)


def check_shape(curve, fmax):
    areas = [a for _, a in curve]
    assert areas == sorted(areas), "monotone tradeoff"
    assert 1400 <= fmax <= 1900, "max frequency near the paper's 1.5 GHz"
    # Flat region at low frequencies.
    assert areas[0] == areas[1] == areas[2]
    # ~1.8x total span, as in 0.100 -> 0.180.
    span = areas[-1] / areas[0]
    assert 1.4 <= span <= 1.9
    # Superlinear near the wall: the last 100 MHz cost more than an
    # earlier 100 MHz.
    deltas = [b - a for a, b in zip(areas, areas[1:])]
    assert deltas[-1] > deltas[len(deltas) // 2]


def main(runner):
    lines, data = rows(runner)
    emit("f6_freq_area_tradeoff", lines)
    check_shape(*data)
