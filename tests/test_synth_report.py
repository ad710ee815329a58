"""Unit tests for whole-NoC synthesis reports."""

import pytest

from repro.core.config import NocParameters
from repro.network.noc import NocBuildConfig
from repro.network.topology import attach_round_robin, mesh
from repro.synth.report import mesh_operating_point, synthesize_noc


def attached_mesh():
    topo = mesh(2, 2)
    attach_round_robin(topo, 2, 2)
    return topo


class TestSynthesisReport:
    def test_component_counts(self):
        report = synthesize_noc(attached_mesh())
        assert len(report.by_kind("switch")) == 4
        assert len(report.by_kind("initiator_ni")) == 2
        assert len(report.by_kind("target_ni")) == 2
        assert len(report.by_kind("link")) == 1  # one aggregate row

    def test_totals_are_sums(self):
        report = synthesize_noc(attached_mesh())
        assert report.total_area_mm2 == pytest.approx(
            sum(c.area_mm2 for c in report.components)
        )
        assert report.total_power_mw == pytest.approx(
            sum(c.power_mw for c in report.components)
        )

    def test_area_by_kind_partitions_total(self):
        report = synthesize_noc(attached_mesh())
        assert sum(report.area_by_kind().values()) == pytest.approx(
            report.total_area_mm2
        )

    def test_min_max_freq_is_slowest_component(self):
        report = synthesize_noc(attached_mesh())
        assert report.min_max_freq_mhz == min(c.max_freq_mhz for c in report.components)

    def test_links_can_be_excluded(self):
        with_links = synthesize_noc(attached_mesh())
        without = synthesize_noc(attached_mesh(), include_links=False)
        assert without.total_area_mm2 < with_links.total_area_mm2
        assert not without.by_kind("link")

    def test_unreachable_target_freq_falls_back_to_component_max(self):
        # 5 GHz is beyond every component; the report must not raise.
        report = synthesize_noc(attached_mesh(), target_freq_mhz=5000.0)
        assert report.total_area_mm2 > 0

    def test_wider_flits_cost_more(self):
        wide = synthesize_noc(
            attached_mesh(), NocBuildConfig(params=NocParameters(flit_width=128))
        )
        narrow = synthesize_noc(
            attached_mesh(), NocBuildConfig(params=NocParameters(flit_width=16))
        )
        assert wide.total_area_mm2 > 2 * narrow.total_area_mm2

    def test_table_rendering_mentions_every_component(self):
        report = synthesize_noc(attached_mesh())
        table = report.to_table()
        for c in report.components:
            assert c.name in table
        assert "TOTAL" in table

    def test_operating_point_per_kind(self):
        report = synthesize_noc(attached_mesh())
        ops = mesh_operating_point(report)
        assert set(ops) == {"switch", "initiator_ni", "target_ni", "link"}
        assert ops["switch"] <= ops["initiator_ni"]

    def test_switch_labels_reflect_radix(self):
        report = synthesize_noc(attached_mesh())
        labels = {c.label for c in report.by_kind("switch")}
        assert labels == {"3x3"}  # 2 mesh neighbours + 1 NI on every switch
