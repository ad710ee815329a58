"""One route set: every view of a NoC reads its routes from
:class:`repro.core.routing.RouteSet`.

The simulator's NI LUTs, the compiler's emitted tables, the DSE's hop
counts and the analytic estimate must describe the same routes; the
three-views check below is the only place they are compared.
"""

import pytest

from repro.compiler import NocSpecification, generate_routing_tables, simulation_view
from repro.core.routing import RouteSet
from repro.flow.selection import MappedFabric, estimate_mean_cycles, mean_cycles
from repro.flow.taskgraph import demo_multimedia_soc, demo_telecom_soc
from repro.network.topology import attach_round_robin, custom_topology, mesh, ring
from repro.serve.service import topology_from_name

SOCS = {"multimedia": demo_multimedia_soc, "telecom": demo_telecom_soc}
FABRICS = ("mesh-2x2", "mesh-3x3", "ring-4", "ring-6", "star-4", "spidergon-4",
           "torus-3x3", "hypercube-3")


def holey_mesh():
    """A 2x3 mesh that keeps its coordinates but lost two links."""
    topo = custom_topology(
        "holey",
        [(a, b) for a, b in mesh(2, 3).edges
         if {a, b} not in ({"sw_0_0", "sw_1_0"}, {"sw_1_1", "sw_2_1"})],
        coords=mesh(2, 3).coords,
    )
    attach_round_robin(topo, 3, 3)
    return topo


class TestRouteSet:
    def test_policy_is_resolved_once_from_the_topology(self):
        topo = mesh(2, 2)
        attach_round_robin(topo, 2, 2)
        assert RouteSet(topo).policy == "dor"
        assert RouteSet(topo, "shortest").policy == "shortest"
        assert RouteSet(ring(4)).policy == "shortest"

    def test_pairs_are_both_directions_initiators_first(self):
        topo = mesh(2, 2)
        cpus, mems = attach_round_robin(topo, 2, 2)
        assert RouteSet(topo).pairs() == (
            [(c, m) for c in cpus for m in mems] + [(m, c) for c in cpus for m in mems])

    def test_channels_run_from_injection_to_ejection_along_the_ports(self):
        topo = mesh(3, 3)
        attach_round_robin(topo, 4, 4)
        routes = RouteSet(topo)
        for src, dst in routes.pairs():
            channels = routes.channels(src, dst)
            assert channels[0] == (src, topo.switch_of(src))
            assert channels[-1] == (topo.switch_of(dst), dst)
            walked = [topo.ports_of(sw)[port]
                      for (sw, _), port in zip(channels[1:], routes.route(src, dst))]
            assert walked == [nxt for _, nxt in channels[1:]]

    def test_a_pair_is_routed_on_first_read_and_kept(self, monkeypatch):
        topo = mesh(3, 3)
        attach_round_robin(topo, 2, 2)
        routes = RouteSet(topo)
        calls = []
        real = type(topo).switch_path
        monkeypatch.setattr(type(topo), "switch_path",
                            lambda self, *a: calls.append(a) or real(self, *a))
        first = routes.route("cpu0", "mem1")
        assert routes.route("cpu0", "mem1") is first
        assert routes.channels("cpu0", "mem1")
        assert len(calls) == 1

    def test_an_unknown_policy_fails_on_first_read(self):
        topo = mesh(2, 2)
        attach_round_robin(topo, 1, 1)
        routes = RouteSet(topo, "fancy")
        with pytest.raises(ValueError, match="unknown routing policy"):
            routes.route("cpu0", "mem0")


class TestDefaultPolicy:
    def test_a_full_grid_routes_dimension_order(self):
        assert mesh(3, 4).default_policy == "dor"
        assert mesh(1, 3).default_policy == "dor"

    def test_a_grid_missing_links_routes_shortest(self):
        topo = holey_mesh()
        assert topo.default_policy == "shortest"
        routes = RouteSet(topo)
        for pair in routes.pairs():
            routes.route(*pair)
        dor = RouteSet(topo, "dor")
        with pytest.raises(ValueError, match="neighbour"):
            for pair in dor.pairs():
                dor.route(*pair)

    def test_coordinates_that_do_not_fill_a_rectangle_route_shortest(self):
        l_shape = custom_topology(
            "ell", [("a", "b"), ("a", "c")],
            coords={"a": (0, 0), "b": (1, 0), "c": (0, 1)},
        )
        assert l_shape.default_policy == "shortest"
        stacked = custom_topology(
            "stacked", [("a", "b")], coords={"a": (0, 0), "b": (0, 0)})
        assert stacked.default_policy == "shortest"

    def test_a_fabric_without_coordinates_routes_shortest(self):
        assert ring(4).default_policy == "shortest"


class TestThreeViewsReadOneRouteSet:
    @pytest.fixture(scope="class", params=[
        (soc, fabric) for soc in SOCS for fabric in FABRICS],
        ids=lambda case: f"{case[0]}-{case[1]}")
    def mapped(self, request):
        soc, fabric = request.param
        return MappedFabric(SOCS[soc]()[2], topology_from_name(fabric),
                            anneal_iterations=300, seed=3)

    def test_hops_are_the_emitted_route_lengths(self, mapped):
        topo = mapped.placement[0]
        tables = generate_routing_tables(NocSpecification.from_topology(topo))
        demands = mapped.core_graph.demands()
        assert len(mapped.hops) == len(demands)
        for (rate, hops), (src, dst, demand_rate) in zip(mapped.hops, demands):
            assert rate == demand_rate
            if topo.is_initiator(src):
                assert hops == len(tables.forward[src][dst][1])
            else:
                assert hops == len(tables.reverse[src][tables.node_ids[dst]])

    def test_the_simulators_luts_are_the_emitted_tables(self, mapped):
        spec = NocSpecification.from_topology(mapped.placement[0])
        tables = generate_routing_tables(spec)
        noc = simulation_view(spec)
        assert noc.node_ids == tables.node_ids
        assert {name: ni.routing.forward for name, ni in noc.initiator_nis.items()} == (
            tables.forward)
        assert {name: ni.routing.reverse for name, ni in noc.target_nis.items()} == (
            tables.reverse)

    def test_the_estimate_reads_the_same_hop_counts(self, mapped):
        topo, mapping, _ = mapped.placement
        assert estimate_mean_cycles(mapped.core_graph, topo, mapping) == (
            mean_cycles(mapped.hops))
