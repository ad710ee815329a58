"""Synthesis estimation models.

The paper's results are areas (mm²), powers (mW) and clock frequencies
of NIs and switches synthesized on a 130 nm ASIC flow.  Without a
standard-cell library, this package substitutes analytic models whose
*structure* follows the hardware (register files, crossbars, arbiters,
LUTs scale with flit width, radix and buffer depth) and whose constants
are calibrated to the paper's published anchor points:

* a 32-bit 4x4 switch synthesizes to ~1 GHz at 130 nm, a 6x4 to
  875-980 MHz;
* a 32-bit 5x5 switch spans ~0.100 mm² (relaxed) to ~0.180 mm² at
  1.5 GHz target frequency;
* the 3x4 mesh case study (8 initiators, 11 targets, 32-bit flits)
  totals ~2.6 mm².

See DESIGN.md section 5 and the tests in
``tests/test_synth_calibration.py`` that pin these anchors.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "area": ("credit_switch_area_mm2", "link_area_mm2", "ni_area_mm2",
             "switch_area_mm2"),
    "energy": ("EnergyReport", "link_energy_per_flit_pj", "measure_noc_energy",
               "ni_energy_per_packet_pj", "switch_energy_per_flit_pj"),
    "power": ("ni_power_mw", "switch_power_mw"),
    "report": ("ComponentReport", "SynthesisReport", "synthesize_noc"),
    "technology": ("UMC130", "TechnologyLibrary"),
    "timing": ("frequency_area_curve", "ni_max_freq_mhz", "speed_fraction",
               "switch_delay_ps", "switch_max_freq_mhz"),
})
