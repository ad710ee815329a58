"""Unit tests for link bandwidth loads and the verdict's bandwidth kind."""

import pytest

from repro.core.config import NocBuildConfig, NocParameters
from repro.core.packet import PacketHeader
from repro.core.routing import BANDWIDTH_MARGIN, RouteSet, violations
from repro.flow.bandwidth import (
    demand_routes,
    demand_to_flit_rate,
    flits_per_transaction,
    route_loads,
)
from repro.flow.taskgraph import CoreGraph, CoreSpec
from repro.network.topology import mesh


def two_pair_graph(rate=100.0):
    cg = CoreGraph(
        "g",
        [
            CoreSpec("cpu0", True),
            CoreSpec("cpu1", True),
            CoreSpec("mem0", False),
            CoreSpec("mem1", False),
        ],
    )
    cg.add_demand("cpu0", "mem0", rate)
    cg.add_demand("cpu1", "mem1", rate)
    return cg


def attached_line(cg):
    topo = mesh(1, 2)
    topo.add_initiator("cpu0")
    topo.add_initiator("cpu1")
    topo.add_target("mem0")
    topo.add_target("mem1")
    topo.attach("cpu0", "sw_0_0")
    topo.attach("cpu1", "sw_0_0")
    topo.attach("mem0", "sw_1_0")
    topo.attach("mem1", "sw_1_0")
    return topo


def link_loads(topo, cg, params):
    return route_loads(demand_routes(RouteSet(topo), cg), params)


def verdict(topo, cg, params):
    return violations(RouteSet(topo), NocBuildConfig(params=params),
                      link_loads(topo, cg, params))


class TestConversions:
    def test_flits_per_transaction(self):
        p = NocParameters(flit_width=32)
        header = PacketHeader.bit_width(p)
        expected = -(-(header + 4 * 32) // 32)
        assert flits_per_transaction(p, 4) == expected

    def test_demand_scaling(self):
        p = NocParameters(flit_width=32)
        # Double the demand, double the flit rate.
        one = demand_to_flit_rate(100, p)
        two = demand_to_flit_rate(200, p)
        assert two == pytest.approx(2 * one)

    def test_wider_flits_fewer_flits(self):
        narrow = demand_to_flit_rate(100, NocParameters(flit_width=16))
        wide = demand_to_flit_rate(100, NocParameters(flit_width=128))
        assert wide < narrow

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            demand_to_flit_rate(-1, NocParameters())


class TestLinkLoads:
    def test_shared_trunk_accumulates(self):
        cg = two_pair_graph(rate=100.0)
        topo = attached_line(cg)
        p = NocParameters(flit_width=32)
        loads = link_loads(topo, cg, p)
        # Both flows cross the single sw_0_0 -> sw_1_0 trunk.
        trunk = loads[("sw_0_0", "sw_1_0")]
        single = demand_to_flit_rate(100.0, p)
        assert trunk == pytest.approx(2 * single)

    def test_ejection_links_counted(self):
        cg = two_pair_graph()
        topo = attached_line(cg)
        loads = link_loads(topo, cg, NocParameters())
        assert ("sw_1_0", "mem0") in loads
        assert ("cpu0", "sw_0_0") in loads

    def test_unused_links_absent(self):
        cg = two_pair_graph()
        topo = attached_line(cg)
        loads = link_loads(topo, cg, NocParameters())
        assert ("sw_1_0", "sw_0_0") not in loads  # no reverse demand


class TestFeasibility:
    def test_light_load_feasible(self):
        cg = two_pair_graph(rate=50.0)
        topo = attached_line(cg)
        assert verdict(topo, cg, NocParameters(flit_width=32)) == []

    def test_overload_flagged_worst_first(self):
        cg = two_pair_graph(rate=1800.0)  # ~1.8 words/cycle on the trunk
        topo = attached_line(cg)
        p = NocParameters(flit_width=32)
        hot = verdict(topo, cg, p)
        assert hot and {v.kind for v in hot} == {"bandwidth"}
        loads = [link_loads(topo, cg, p)[v.where] for v in hot]
        assert loads == sorted(loads, reverse=True)
        assert loads[0] > 1.0
        assert hot[0].message.startswith("link sw_0_0->sw_1_0 carries ")

    def test_wider_flits_restore_feasibility(self):
        cg = two_pair_graph(rate=450.0)
        topo = attached_line(cg)
        assert verdict(topo, cg, NocParameters(flit_width=16)) != []
        assert verdict(topo, cg, NocParameters(flit_width=128)) == []

    def test_the_margin_is_the_threshold(self):
        cg = two_pair_graph()
        topo = attached_line(cg)
        routes = RouteSet(topo)
        trunk = ("sw_0_0", "sw_1_0")
        for load, flagged in ((BANDWIDTH_MARGIN, False), (BANDWIDTH_MARGIN + 1e-9, True)):
            found = violations(routes, NocBuildConfig(), {trunk: load})
            assert [v.where for v in found] == ([trunk] if flagged else [])
