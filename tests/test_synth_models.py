"""Unit tests for the synthesis area/power/timing models (structure)."""

import pytest

from repro.core.config import LinkConfig, NiConfig, NocParameters, SwitchConfig
from repro.synth import (
    UMC130,
    frequency_area_curve,
    link_area_mm2,
    ni_area_mm2,
    ni_max_freq_mhz,
    ni_power_mw,
    speed_fraction,
    switch_area_mm2,
    switch_delay_ps,
    switch_max_freq_mhz,
    switch_power_mw,
)


def sw(n_in=4, n_out=4, **kw):
    return SwitchConfig(n_inputs=n_in, n_outputs=n_out, **kw)


def params(w=32):
    return NocParameters(flit_width=w)


class TestAreaMonotonicity:
    def test_area_grows_with_flit_width(self):
        areas = [switch_area_mm2(sw(), params(w)) for w in (16, 32, 64, 128)]
        assert areas == sorted(areas)
        assert areas[-1] > 2 * areas[0]

    def test_area_grows_with_radix(self):
        a44 = switch_area_mm2(sw(4, 4), params())
        a55 = switch_area_mm2(sw(5, 5), params())
        a66 = switch_area_mm2(sw(6, 6), params())
        assert a44 < a55 < a66

    def test_area_grows_with_buffer_depth(self):
        shallow = switch_area_mm2(sw(buffer_depth=2), params())
        deep = switch_area_mm2(sw(buffer_depth=12), params())
        assert deep > shallow

    def test_deep_pipeline_costs_extra_registers(self):
        lite = switch_area_mm2(sw(pipeline_stages=2), params())
        old = switch_area_mm2(sw(pipeline_stages=7), params())
        assert old > lite

    def test_asymmetric_radix(self):
        a64 = switch_area_mm2(sw(6, 4), params())
        a44 = switch_area_mm2(sw(4, 4), params())
        assert a64 > a44

    def test_ni_grows_with_flit_width(self):
        areas = [
            ni_area_mm2(NiConfig(params=params(w))) for w in (16, 32, 64, 128)
        ]
        assert areas == sorted(areas)

    def test_target_ni_bigger_than_initiator(self):
        cfg = NiConfig(params=params())
        assert ni_area_mm2(cfg, initiator=False) > ni_area_mm2(cfg, initiator=True)

    def test_ni_much_smaller_than_switch(self):
        cfg = NiConfig(params=params())
        assert ni_area_mm2(cfg) < 0.6 * switch_area_mm2(sw(), params())

    def test_lut_size_matters(self):
        cfg = NiConfig(params=params())
        small = ni_area_mm2(cfg, n_destinations=2)
        big = ni_area_mm2(cfg, n_destinations=40)
        assert big > small

    def test_ni_needs_a_destination(self):
        with pytest.raises(ValueError):
            ni_area_mm2(NiConfig(params=params()), n_destinations=0)

    def test_link_area_scales_with_stages_and_width(self):
        a1 = link_area_mm2(LinkConfig(stages=1), params())
        a3 = link_area_mm2(LinkConfig(stages=3), params())
        assert a3 == pytest.approx(3 * a1)
        wide = link_area_mm2(LinkConfig(stages=1), params(128))
        assert wide > a1


class TestTiming:
    def test_delay_grows_with_radix(self):
        assert switch_delay_ps(sw(8, 8), params()) > switch_delay_ps(sw(2, 2), params())

    def test_delay_grows_with_flit_width(self):
        assert switch_delay_ps(sw(), params(128)) > switch_delay_ps(sw(), params(16))

    def test_max_freq_inverse_of_delay(self):
        f = switch_max_freq_mhz(sw(), params())
        d = switch_delay_ps(sw(), params())
        assert f == pytest.approx(1e6 / (d / UMC130.effort_gain))

    def test_ni_faster_than_switch(self):
        assert ni_max_freq_mhz(NiConfig(params=params())) > switch_max_freq_mhz(
            sw(), params()
        )

    def test_speed_fraction_bounds(self):
        relaxed = 1000.0
        assert speed_fraction(relaxed, UMC130, 100.0) == 0.0  # easy target
        max_f = 1e6 / (relaxed / UMC130.effort_gain)
        assert speed_fraction(relaxed, UMC130, max_f) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="beyond"):
            speed_fraction(relaxed, UMC130, max_f * 1.1)
        with pytest.raises(ValueError):
            speed_fraction(relaxed, UMC130, -5)


class TestFrequencyDerating:
    def test_area_flat_until_relaxed_frequency(self):
        cfg, p = sw(), params()
        relaxed_f = 1e6 / switch_delay_ps(cfg, p)
        a_lo = switch_area_mm2(cfg, p, target_freq_mhz=relaxed_f * 0.5)
        a_rel = switch_area_mm2(cfg, p, target_freq_mhz=relaxed_f)
        assert a_lo == pytest.approx(a_rel)

    def test_area_grows_toward_max_frequency(self):
        cfg, p = sw(5, 5), params()
        fmax = switch_max_freq_mhz(cfg, p)
        a_rel = switch_area_mm2(cfg, p)
        a_max = switch_area_mm2(cfg, p, target_freq_mhz=fmax)
        assert a_max == pytest.approx(a_rel * (1 + UMC130.area_derate_max), rel=1e-6)

    def test_curve_monotonic_and_skips_unreachable(self):
        cfg, p = sw(5, 5), params()
        fmax = switch_max_freq_mhz(cfg, p)
        freqs = [100, 500, 900, 1200, fmax, fmax * 2]
        curve = frequency_area_curve(cfg, p, freqs)
        assert len(curve) == 5  # the 2*fmax point fails timing
        areas = [a for _, a in curve]
        assert areas == sorted(areas)


class TestPower:
    def test_power_scales_with_frequency(self):
        p1 = switch_power_mw(sw(), params(), 500, target_freq_mhz=500)
        p2 = switch_power_mw(sw(), params(), 1000, target_freq_mhz=1000)
        assert p2 > 1.8 * p1

    def test_power_scales_with_flit_width(self):
        p16 = switch_power_mw(sw(), params(16), 1000)
        p128 = switch_power_mw(sw(), params(128), 1000)
        assert p128 > 2 * p16

    def test_activity_scales_dynamic_power(self):
        lo = switch_power_mw(sw(), params(), 1000, activity=0.1)
        hi = switch_power_mw(sw(), params(), 1000, activity=0.9)
        assert hi > 5 * lo

    def test_ni_power_positive_and_smaller_than_switch(self):
        cfg = NiConfig(params=params())
        ni_p = ni_power_mw(cfg, 1000)
        sw_p = switch_power_mw(sw(), params(), 1000)
        assert 0 < ni_p < sw_p

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            switch_power_mw(sw(), params(), -1)
        with pytest.raises(ValueError):
            switch_power_mw(sw(), params(), 1000, activity=0.0)


class TestTechnologyScaling:
    def test_library_validation(self):
        import dataclasses

        with pytest.raises(ValueError):
            dataclasses.replace(UMC130, ff_area_um2_per_bit=-1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(UMC130, effort_gain=0.5)
