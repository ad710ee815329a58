"""Unit tests for the xpipesCompiler: spec, tables, codegen, views."""

import pytest

from repro.compiler import (
    NocSpecification,
    generate_routing_tables,
    generate_systemc,
    render_routing_tables,
    simulation_view,
    synthesis_view,
    write_systemc,
)
from repro.core.config import ArbitrationPolicy, LinkConfig, NocParameters
from repro.core.routing import RouteSet
from repro.network.noc import NocBuildConfig
from repro.network.topology import attach_round_robin, mesh
from repro.network.traffic import UniformRandomTraffic


@pytest.fixture
def spec():
    topo = mesh(2, 2)
    attach_round_robin(topo, 2, 2)
    return NocSpecification.from_topology(topo)


class TestSpecification:
    def test_json_roundtrip_is_lossless(self, spec):
        again = NocSpecification.from_json(spec.to_json())
        assert again == spec

    def test_to_topology_rebuilds_structure(self, spec):
        topo = spec.to_topology()
        assert len(topo.switches) == 4
        assert set(topo.initiators) == {"cpu0", "cpu1"}
        assert set(topo.targets) == {"mem0", "mem1"}
        # Port numbering survives the round trip (routes depend on it).
        original = RouteSet(spec.to_topology(), "dor")
        again = RouteSet(NocSpecification.from_json(spec.to_json()).to_topology(), "dor")
        assert original.pairs() == again.pairs()
        for pair in original.pairs():
            assert original.route(*pair) == again.route(*pair)

    def test_build_config_carries_parameters(self):
        topo = mesh(2, 2)
        attach_round_robin(topo, 1, 1)
        cfg = NocBuildConfig(
            params=NocParameters(flit_width=64),
            buffer_depth=8,
            arbitration=ArbitrationPolicy.FIXED_PRIORITY,
            link=LinkConfig(stages=2, error_rate=0.01),
        )
        spec = NocSpecification.from_topology(topo, cfg)
        rebuilt = spec.build_config()
        assert rebuilt.params.flit_width == 64
        assert rebuilt.buffer_depth == 8
        assert rebuilt.arbitration is ArbitrationPolicy.FIXED_PRIORITY
        assert rebuilt.link.stages == 2

    def test_link_overrides_roundtrip(self):
        from repro.core.config import LinkConfig

        topo = mesh(2, 2)
        attach_round_robin(topo, 1, 1)
        cfg = NocBuildConfig(
            link_overrides={
                frozenset(("sw_0_0", "sw_1_0")): LinkConfig(stages=3),
            }
        )
        spec = NocSpecification.from_topology(topo, cfg)
        again = NocSpecification.from_json(spec.to_json())
        assert again == spec
        rebuilt = again.build_config()
        assert rebuilt.link_for("sw_0_0", "sw_1_0").stages == 3
        assert rebuilt.link_for("sw_0_0", "sw_0_1").stages == 1

    def test_from_topology_requires_valid_topology(self):
        topo = mesh(2, 2)
        topo.add_initiator("cpu")
        with pytest.raises(Exception, match="unattached"):
            NocSpecification.from_topology(topo)


class TestRoutingTables:
    def test_tables_match_compute_routes(self, spec):
        tables = generate_routing_tables(spec)
        topo = spec.to_topology()
        routes = RouteSet(topo, "dor")
        for ini, entries in tables.forward.items():
            for target, (dest_id, route) in entries.items():
                assert route == routes.route(ini, target)
                assert dest_id == tables.node_ids[target]
        for target, entries in tables.reverse.items():
            for ini_id, route in entries.items():
                ini = [n for n, i in tables.node_ids.items() if i == ini_id][0]
                assert route == routes.route(target, ini)

    def test_render_mentions_every_ni(self, spec):
        text = render_routing_tables(generate_routing_tables(spec))
        for ni in ("cpu0", "cpu1", "mem0", "mem1"):
            assert ni in text
        assert "route=<" in text
        assert "addr=[" in text


class TestCodegen:
    def test_file_set(self, spec):
        files = generate_systemc(spec)
        assert set(files) == {
            "xpipes_params.h",
            "switch_types.h",
            "ni_types.h",
            "routing_tables.h",
            "mesh2x2_top.cpp",
            "tb_mesh2x2.cpp",
            "Makefile",
        }

    def test_testbench_drives_clock_and_reset(self, spec):
        tb = generate_systemc(spec)["tb_mesh2x2.cpp"]
        assert "sc_main" in tb
        assert "sc_clock" in tb
        assert "reset.write(true)" in tb

    def test_makefile_builds_the_testbench(self, spec):
        mk = generate_systemc(spec)["Makefile"]
        assert "mesh2x2_tb" in mk
        assert "-lsystemc" in mk

    def test_params_header_reflects_spec(self, spec):
        text = generate_systemc(spec)["xpipes_params.h"]
        assert "#define XPIPES_FLIT_WIDTH      32" in text
        assert "#define XPIPES_PIPELINE_STAGES 2" in text

    def test_switch_typedefs_cover_radixes(self, spec):
        text = generate_systemc(spec)["switch_types.h"]
        # Every 2x2 mesh switch has radix 3 (2 neighbours + 1 NI).
        assert "xpipes_switch<3, 3," in text

    def test_top_instantiates_every_component(self, spec):
        topo = spec.to_topology()
        top = generate_systemc(spec)["mesh2x2_top.cpp"]
        for s in topo.switches:
            assert f" {s};" in top
        for ni in topo.nis:
            assert f"{ni}_ni;" in top
        assert "SC_MODULE" in top

    def test_routing_header_has_luts(self, spec):
        text = generate_systemc(spec)["routing_tables.h"]
        assert "cpu0_lut" in text
        assert "mem0_resp_lut" in text

    def test_write_systemc_creates_files(self, spec, tmp_path):
        paths = write_systemc(spec, str(tmp_path / "gen"))
        assert len(paths) == 7
        for p in paths:
            with open(p) as f:
                assert "Generated by repro.compiler" in f.read()


class TestViews:
    def test_simulation_view_runs_traffic(self, spec):
        noc = simulation_view(spec)
        mems = spec.to_topology().targets
        noc.populate(
            {c: UniformRandomTraffic(mems, 0.15, seed=i)
             for i, c in enumerate(spec.to_topology().initiators)},
            max_transactions=25,
        )
        noc.run_until_drained(max_cycles=100_000)
        assert noc.total_completed() == 50

    def test_synthesis_view_matches_direct_synthesis(self, spec):
        from repro.synth.report import synthesize_noc

        via_compiler = synthesis_view(spec, target_freq_mhz=900)
        direct = synthesize_noc(
            spec.to_topology(), spec.build_config(), target_freq_mhz=900
        )
        assert via_compiler.total_area_mm2 == pytest.approx(direct.total_area_mm2)

    def test_views_are_orthogonal(self, spec):
        """Both views derive from the same spec without interference."""
        noc = simulation_view(spec)
        report = synthesis_view(spec)
        assert len(noc.switches) == len(report.by_kind("switch"))
