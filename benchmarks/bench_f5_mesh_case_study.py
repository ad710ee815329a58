"""F5 -- "The Power of Abstraction: Mesh Case Study".

Paper figure: component areas vs flit width {16, 32, 64, 128} for
Initiator NI / Target NI / 4x4 switch / 6x4 switch, plus the headline
"a 3x4 xpipes mesh for 8 processors and 11 slaves occupies ~2.6 mm²"
with NIs and 4x4 switches at 1 GHz and 6x4 switches at 875-980 MHz.
"""

from benchmarks._common import FLIT_WIDTHS, emit

from repro.core.config import NiConfig, NocParameters, SwitchConfig
from repro.network.noc import NocBuildConfig
from repro.network.topology import mesh
from repro.synth import ni_area_mm2, switch_area_mm2, switch_max_freq_mhz, synthesize_noc
from repro.synth.timing import switch_relaxed_freq_mhz


def build_case_study_topology():
    """The paper's 3x4 mesh with 8 processors and 11 slaves."""
    topo = mesh(4, 3)
    switches = topo.switches
    for i in range(8):
        topo.add_initiator(f"cpu{i}")
        topo.attach(f"cpu{i}", switches[i])
    for i in range(11):
        topo.add_target(f"mem{i}")
        topo.attach(f"mem{i}", switches[(8 + i) % 12])
    return topo


def rows(runner):
    lines = [
        "F5: mesh case study -- component area (mm2) vs flit width",
        f"{'flit':>5} {'init NI':>9} {'targ NI':>9} {'4x4 sw':>9} {'6x4 sw':>9}",
    ]
    curves = {}
    for w in FLIT_WIDTHS:
        p = NocParameters(flit_width=w)
        ni_cfg = NiConfig(params=p)
        sw44 = SwitchConfig(4, 4)
        sw64 = SwitchConfig(6, 4)
        f44 = min(1000.0, switch_max_freq_mhz(sw44, p))
        f64 = min(1000.0, switch_max_freq_mhz(sw64, p))
        vals = (
            ni_area_mm2(ni_cfg, initiator=True, n_destinations=11, target_freq_mhz=1000),
            ni_area_mm2(ni_cfg, initiator=False, n_destinations=8, target_freq_mhz=1000),
            switch_area_mm2(sw44, p, target_freq_mhz=f44),
            switch_area_mm2(sw64, p, target_freq_mhz=f64),
        )
        curves[w] = vals
        lines.append(f"{w:>5} " + " ".join(f"{v:>9.4f}" for v in vals))

    # Whole-mesh synthesis at 32-bit flits.
    topo = build_case_study_topology()
    report = synthesize_noc(
        topo, NocBuildConfig(params=NocParameters(flit_width=32)), target_freq_mhz=1000
    )
    p32 = NocParameters(flit_width=32)
    f44_relaxed = switch_relaxed_freq_mhz(SwitchConfig(4, 4), p32)
    f64_relaxed = switch_relaxed_freq_mhz(SwitchConfig(6, 4), p32)
    lines.append("")
    lines.append(
        f"3x4 mesh, 8 processors + 11 slaves, 32-bit flits: "
        f"{report.total_area_mm2:.2f} mm2 (paper: ~2.6 mm2)"
    )
    lines.append(
        f"operating points: 4x4 switch {f44_relaxed:.0f} MHz (paper: 1 GHz), "
        f"6x4 switch {f64_relaxed:.0f} MHz (paper: 875-980 MHz)"
    )
    by_kind = report.area_by_kind()
    lines.append(
        "area split: "
        + ", ".join(f"{k}={v:.2f}" for k, v in sorted(by_kind.items()))
    )
    return lines, (curves, report, (f44_relaxed, f64_relaxed))


def check_shape(curves, report, freqs):
    for w in FLIT_WIDTHS:
        init, targ, s44, s64 = curves[w]
        assert init < targ < s44 < s64, f"component ordering at {w}b"
    # All four curves grow with flit width.
    for idx in range(4):
        series = [curves[w][idx] for w in FLIT_WIDTHS]
        assert series == sorted(series)
    assert 2.2 <= report.total_area_mm2 <= 3.0, "~2.6 mm2 headline"
    f44, f64 = freqs
    assert f44 >= 999.0
    assert 875.0 <= f64 <= 980.0


def main(runner):
    lines, data = rows(runner)
    emit("f5_mesh_case_study", lines)
    check_shape(*data)
