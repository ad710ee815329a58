"""Unit tests for topology selection."""

import pytest

from repro.flow.selection import (
    CandidateResult,
    estimate_mean_cycles,
    evaluate_candidate,
    select_topology,
)
from repro.flow.taskgraph import demo_multimedia_soc
from repro.network.topology import mesh, ring, star


@pytest.fixture(scope="module")
def core_graph():
    return demo_multimedia_soc()[2]


class TestEstimateMeanCycles:
    def test_single_hop_estimate(self, core_graph):
        from repro.core.config import NocParameters
        from repro.flow.bandwidth import flits_per_transaction

        topo = mesh(2, 2)
        mapping = {c: "sw_0_0" for c in core_graph.cores}
        cycles = estimate_mean_cycles(core_graph, topo, mapping)
        # Everything co-located: 1 hop x 3 cycles + 6 NI cycles +
        # wormhole serialization of the default 4-beat packet.
        ser = flits_per_transaction(NocParameters(), 4) - 1
        assert cycles == pytest.approx(9.0 + ser)

    def test_wider_flits_estimate_lower_latency(self, core_graph):
        from repro.core.config import NocParameters

        topo = mesh(2, 2)
        mapping = {c: "sw_0_0" for c in core_graph.cores}
        narrow = estimate_mean_cycles(
            core_graph, topo, mapping, params=NocParameters(flit_width=16)
        )
        wide = estimate_mean_cycles(
            core_graph, topo, mapping, params=NocParameters(flit_width=128)
        )
        assert wide < narrow

    def test_spread_mapping_costs_more(self, core_graph):
        topo = mesh(2, 2)
        together = {c: "sw_0_0" for c in core_graph.cores}
        spread = {}
        switches = topo.switches
        for i, c in enumerate(core_graph.cores):
            spread[c] = switches[i % 4]
        assert estimate_mean_cycles(core_graph, topo, spread) > estimate_mean_cycles(
            core_graph, topo, together
        )


class TestEvaluateCandidate:
    def test_result_fields_consistent(self, core_graph):
        res = evaluate_candidate(core_graph, mesh(2, 2), seed=1)
        assert isinstance(res, CandidateResult)
        assert res.area_mm2 == pytest.approx(res.report.total_area_mm2)
        assert res.mean_latency_ns == pytest.approx(
            res.mean_cycles / (res.freq_mhz / 1000.0)
        )
        assert res.freq_mhz <= 1000.0

    def test_candidate_fabric_not_mutated(self, core_graph):
        fabric = mesh(2, 2)
        evaluate_candidate(core_graph, fabric, seed=1)
        assert fabric.nis == []  # deep copy protected the input

    def test_row_renders(self, core_graph):
        res = evaluate_candidate(core_graph, mesh(2, 2), seed=1)
        row = res.row()
        assert "MHz" in row and "mm2" in row and "cyc" in row


class TestFloorplanOnDemand:
    def test_floorplan_is_derived_from_the_candidate_once(self, core_graph, monkeypatch):
        from repro.flow import selection
        from repro.flow.floorplan import floorplan_topology

        calls = []

        def counting(topology):
            calls.append(topology)
            return floorplan_topology(topology)

        monkeypatch.setattr(selection, "floorplan_topology", counting)
        res = evaluate_candidate(core_graph, ring(5), seed=1)
        assert calls == []  # no estimate reads it
        plan = res.floorplan
        assert res.floorplan is plan and calls == [res.topology]
        assert plan == floorplan_topology(res.topology)

    def test_select_topology_results_still_carry_a_floorplan(self, core_graph):
        best = select_topology(core_graph, [mesh(2, 2), star(4)], seed=1)[0]
        assert set(best.floorplan.positions) == set(best.topology.switches)


def _heavy(core_graph, factor=40):
    """The same application at ``factor`` x its rates: links overload."""
    import copy

    heavy = copy.deepcopy(core_graph)
    for out in heavy.rates.values():
        for v in out:
            out[v] *= factor
    return heavy


def _per_instance_components(topo, cfg, freq):
    """Reference synthesis: every instance's models evaluated on their
    own, in topology order (what ``synthesize_noc`` did before instances
    of one netlist shared an evaluation)."""
    from repro.core.config import NiConfig, SwitchConfig
    from repro.synth import (
        ni_area_mm2, ni_max_freq_mhz, ni_power_mw, switch_area_mm2,
        switch_max_freq_mhz, switch_power_mw,
    )
    from repro.synth.report import ComponentReport

    p = cfg.params
    out = []
    for s in topo.switches:
        sw = SwitchConfig(topo.radix_of(s), topo.radix_of(s), cfg.buffer_depth,
                          cfg.pipeline_stages, cfg.arbitration)
        fmax = switch_max_freq_mhz(sw, p)
        f = min(freq, fmax)
        out.append(ComponentReport(s, "switch", sw.label(),
                                   switch_area_mm2(sw, p, target_freq_mhz=f), fmax,
                                   switch_power_mw(sw, p, f)))
    ni_cfg = NiConfig(params=p, buffer_depth=cfg.ni_buffer_depth,
                      max_outstanding=cfg.ni_max_outstanding)
    for ni in topo.nis:
        init = topo.is_initiator(ni)
        n_dest = max(len(topo.targets if init else topo.initiators), 1)
        fmax = ni_max_freq_mhz(ni_cfg, initiator=init)
        f = min(freq, fmax)
        out.append(ComponentReport(
            ni, "initiator_ni" if init else "target_ni", f"flit{p.flit_width}",
            ni_area_mm2(ni_cfg, initiator=init, n_destinations=n_dest, target_freq_mhz=f),
            fmax, ni_power_mw(ni_cfg, f, initiator=init, n_destinations=n_dest)))
    return out


class TestStageTwoReadsThePlacementOnce:
    """Hop counts, routes and the census of component instances are
    fixed by the placement: a fabric derives them once for all its
    configurations, and a point computes exactly what the per-point
    public functions compute from the mapped topology."""

    FABRICS = ("mesh-2x2", "ring-4", "star-4", "spidergon-4", "mesh-2x3")

    @pytest.mark.parametrize("graph", ["multimedia", "telecom", "heavy"])
    def test_a_point_equals_the_per_point_functions(self, graph):
        from repro.core.config import NocParameters
        from repro.core.routing import RouteSet, violations
        from repro.flow.bandwidth import demand_routes, route_loads
        from repro.flow.selection import MappedFabric, estimate_candidate
        from repro.network.noc import NocBuildConfig
        from repro.serve.service import core_graph_from_name, topology_from_name
        from repro.synth.report import synthesize_noc

        cg = core_graph_from_name("multimedia" if graph == "heavy" else graph)
        if graph == "heavy":
            cg = _heavy(cg)
        infeasible = 0
        for name in self.FABRICS:
            mapped = MappedFabric(cg, topology_from_name(name), anneal_iterations=100, seed=3)
            topo, mapping, _ = mapped.placement
            for width in (16, 32, 64, 128):
                for depth in (2, 6):
                    cfg = NocBuildConfig(params=NocParameters(flit_width=width),
                                         buffer_depth=depth)
                    got = estimate_candidate(mapped, cfg, target_freq_mhz=1200)
                    report = synthesize_noc(topo, cfg, target_freq_mhz=1200)
                    routes = RouteSet(topo)
                    found = violations(routes, cfg, route_loads(
                        demand_routes(routes, cg), cfg.params))
                    assert got.report.components == report.components
                    assert report.components[:-1] == _per_instance_components(
                        topo, cfg, 1200)
                    assert report.components[-1].kind == "link"
                    assert got.report.noc_name == report.noc_name
                    assert (got.area_mm2, got.power_mw, got.freq_mhz) == (
                        report.total_area_mm2, report.total_power_mw,
                        min(report.min_max_freq_mhz, 1200))
                    assert got.mean_cycles == estimate_mean_cycles(
                        cg, topo, mapping, params=cfg.params)
                    assert got.violations == found
                    assert got.feasible == (not found)
                    infeasible += not got.feasible
        # The heavy case exercises the overloaded-link ordering too.
        assert (infeasible > 0) == (graph == "heavy")

    def test_a_sweep_derives_them_once_per_fabric(self, monkeypatch):
        from repro.flow import selection
        from repro.flow.dse import explore_design_space
        from repro.serve.service import core_graph_from_name, topology_from_name
        from repro.synth import report

        from repro.core.routing import RouteSet

        calls = {"route_set": 0, "census": 0, "switch_model": 0, "lut_walk": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        # Hop counts, link routes and the verdict's header check read one
        # route set per fabric, and its LUT pairs are walked once.
        monkeypatch.setattr(selection, "RouteSet",
                            counted("route_set", selection.RouteSet))
        monkeypatch.setattr(RouteSet, "pairs", counted("lut_walk", RouteSet.pairs))
        census_of = counted("census", selection.NocCensus.of)
        monkeypatch.setattr(selection, "NocCensus", type(
            "CountedCensus", (), {"of": staticmethod(census_of)}))
        monkeypatch.setattr(report, "switch_max_freq_mhz",
                            counted("switch_model", report.switch_max_freq_mhz))
        fabrics = [topology_from_name(n) for n in self.FABRICS]
        points = explore_design_space(
            core_graph_from_name("telecom"), fabrics, flit_widths=(16, 32, 64),
            buffer_depths=(2, 6), seed=5, anneal_iterations=100,
        )
        assert len(points) == 5 * 6
        assert calls["route_set"] == calls["census"] == calls["lut_walk"] == 5
        # One switch model per distinct radix per point, not per switch.
        mapped = [selection.MappedFabric(core_graph_from_name("telecom"), f,
                                         anneal_iterations=100, seed=5)
                  for f in fabrics]
        radixes = sum(len({r for _, r in m.census.switches}) for m in mapped)
        n_switches = sum(len(m.census.switches) for m in mapped)
        assert calls["switch_model"] == 6 * radixes < 6 * n_switches


class TestSelectTopology:
    def test_results_sorted_by_objective(self, core_graph):
        results = select_topology(
            core_graph, [mesh(2, 2), ring(4), star(3)], seed=1
        )
        scores = [r.mean_latency_ns * r.area_mm2 for r in results]
        assert scores == sorted(scores)

    def test_custom_objective_respected(self, core_graph):
        results = select_topology(
            core_graph,
            [mesh(2, 2), mesh(2, 3)],
            objective=lambda r: r.area_mm2,
            seed=1,
        )
        areas = [r.area_mm2 for r in results]
        assert areas == sorted(areas)

    def test_empty_candidates_rejected(self, core_graph):
        with pytest.raises(ValueError):
            select_topology(core_graph, [])

    def test_bigger_fabric_costs_more_area(self, core_graph):
        small = evaluate_candidate(core_graph, mesh(2, 2), seed=1)
        big = evaluate_candidate(core_graph, mesh(3, 3), seed=1)
        assert big.area_mm2 > small.area_mm2

    def test_feasibility_annotated(self, core_graph):
        res = evaluate_candidate(core_graph, mesh(2, 2), seed=1)
        # The demo SoC's demands are far below link capacity.
        assert res.feasible
        assert res.violations == []

    def test_infeasible_candidates_rank_last(self, core_graph):
        """Scale demands up until links overload; the default objective
        must sink infeasible candidates below feasible ones."""
        results = select_topology(_heavy(core_graph), [mesh(2, 2), mesh(3, 3)], seed=1)
        if any(not r.feasible for r in results) and any(r.feasible for r in results):
            feas_flags = [r.feasible for r in results]
            assert feas_flags == sorted(feas_flags, reverse=True)
