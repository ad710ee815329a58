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
        assert res.overloaded == []

    def test_infeasible_candidates_rank_last(self, core_graph):
        """Scale demands up until links overload; the default objective
        must sink infeasible candidates below feasible ones."""
        import copy

        heavy = copy.deepcopy(core_graph)
        for u, v in list(heavy.graph.edges):
            heavy.graph[u][v]["rate"] *= 40
        results = select_topology(heavy, [mesh(2, 2), mesh(3, 3)], seed=1)
        if any(not r.feasible for r in results) and any(r.feasible for r in results):
            feas_flags = [r.feasible for r in results]
            assert feas_flags == sorted(feas_flags, reverse=True)
