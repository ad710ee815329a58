"""Technology library constants.

All area constants are in µm² and include placement/routing overhead
(i.e. they are *effective* densities, not raw cell areas); timing
constants are in picoseconds; power constants are normalized per mm²
so power tracks the area models.  The reference instance
:data:`UMC130` is calibrated against the paper's published 130 nm
numbers -- the calibration is pinned by tests, so retuning a constant
that breaks an anchor fails CI.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TechnologyLibrary:
    """Constants of one ASIC technology node for the analytic models."""

    name: str
    feature_nm: int

    # -- area (µm²) --------------------------------------------------------
    ff_area_um2_per_bit: float  # one register bit, incl. routing overhead
    mux_area_um2_per_bit_port: float  # crossbar: per bit per input-output pair
    arb_area_um2_per_pair: float  # allocator/arbiter per (input, output) pair
    ctl_area_um2_per_port: float  # port FSMs, ACK/NACK control
    lut_area_um2_per_bit: float  # NI routing LUT storage
    base_area_um2: float  # fixed per-instance logic

    # -- timing (ps) ---------------------------------------------------------
    t_reg_ps: float  # clk->q + setup of the stage registers
    t_arb_ps_per_log2: float  # arbitration tree depth cost
    t_xbar_ps_per_log2: float  # crossbar mux tree depth cost
    t_load_ps_per_log2w: float  # wide-datapath loading cost
    effort_gain: float  # max speedup synthesis effort can buy
    area_derate_max: float  # relative area growth at maximum effort

    # -- power ----------------------------------------------------------------
    dyn_mw_per_mm2_ghz: float  # dynamic power density at activity = 1
    leak_mw_per_mm2: float  # static power density

    def __post_init__(self) -> None:
        numeric = {
            k: v
            for k, v in self.__dict__.items()
            if isinstance(v, (int, float)) and k != "feature_nm"
        }
        for k, v in numeric.items():
            if v <= 0:
                raise ValueError(f"{k} must be positive, got {v}")
        if self.effort_gain < 1.0:
            raise ValueError("effort_gain must be >= 1")


#: The paper's node: a 130 nm process, constants calibrated to the
#: anchors listed in the package docstring.
UMC130 = TechnologyLibrary(
    name="generic-130nm",
    feature_nm=130,
    ff_area_um2_per_bit=45.0,
    mux_area_um2_per_bit_port=9.0,
    arb_area_um2_per_pair=90.0,
    ctl_area_um2_per_port=900.0,
    lut_area_um2_per_bit=4.5,
    base_area_um2=4000.0,
    t_reg_ps=350.0,
    t_arb_ps_per_log2=150.0,
    t_xbar_ps_per_log2=120.0,
    t_load_ps_per_log2w=110.0,
    effort_gain=1.9,
    area_derate_max=0.8,
    dyn_mw_per_mm2_ghz=700.0,
    leak_mw_per_mm2=3.0,
)

