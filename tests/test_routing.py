"""Unit tests for source routing: routes, address maps, LUTs."""

import pytest

from repro.core.packet import ADDR_OFFSET_BITS
from repro.core.routing import AddressMap, Route, RouteSet, RoutingTable
from repro.network.topology import attach_round_robin, mesh, ring, star


class TestRoute:
    def test_sequence_protocol(self):
        r = Route((1, 2, 0))
        assert len(r) == 3
        assert list(r) == [1, 2, 0]
        assert r[1] == 2
        assert r.hops == 3

    def test_negative_port_rejected(self):
        with pytest.raises(ValueError):
            Route((0, -1))

    def test_empty_route_valid(self):
        assert len(Route(())) == 0


class TestAddressMap:
    def test_regions_are_disjoint_and_aligned(self):
        amap = AddressMap(["a", "b", "c"])
        regions = [amap.region_of(t) for t in ("a", "b", "c")]
        for i, (base, end) in enumerate(regions):
            assert base == i << ADDR_OFFSET_BITS
            assert end - base == 1 << ADDR_OFFSET_BITS

    def test_decode_splits_target_and_offset(self):
        amap = AddressMap(["a", "b"])
        target, offset = amap.decode((1 << ADDR_OFFSET_BITS) + 0x34)
        assert target == "b" and offset == 0x34

    def test_decode_unknown_slot_raises(self):
        amap = AddressMap(["a"])
        with pytest.raises(KeyError):
            amap.decode(5 << ADDR_OFFSET_BITS)

    def test_duplicate_target_rejected(self):
        with pytest.raises(ValueError):
            AddressMap(["a", "a"])

    def test_contains_and_len(self):
        amap = AddressMap(["a", "b"])
        assert "a" in amap and "z" not in amap
        assert len(amap) == 2
        assert amap.targets == ["a", "b"]


class TestRoutingTable:
    def test_lookup_addr(self):
        amap = AddressMap(["m0", "m1"])
        table = RoutingTable(
            address_map=amap,
            forward={"m0": (5, Route((1,))), "m1": (6, Route((2, 0)))},
        )
        target, dest, offset, route = table.lookup_addr(
            (1 << ADDR_OFFSET_BITS) + 7
        )
        assert (target, dest, offset) == ("m1", 6, 7)
        assert tuple(route) == (2, 0)

    def test_lookup_without_map_raises(self):
        with pytest.raises(ValueError, match="no address map"):
            RoutingTable().lookup_addr(0)

    def test_route_back(self):
        table = RoutingTable(reverse={3: Route((0, 1))})
        assert tuple(table.route_back(3)) == (0, 1)
        with pytest.raises(KeyError):
            table.route_back(9)


class TestComputeRoutes:
    def make_attached_mesh(self):
        topo = mesh(2, 2)
        attach_round_robin(topo, 2, 2)
        return topo

    def test_routes_exist_for_all_pairs_both_directions(self):
        topo = self.make_attached_mesh()
        routes = RouteSet(topo)
        pairs = routes.pairs()
        assert len(set(pairs)) == len(pairs) == 2 * 2 * 2  # 2 cpus x 2 mems x 2 directions
        assert all(routes.route(*pair).hops >= 1 for pair in pairs)

    def test_route_length_is_switch_count_on_path(self):
        topo = self.make_attached_mesh()
        route = RouteSet(topo).route("cpu0", "mem0")
        src_sw = topo.switch_of("cpu0")
        dst_sw = topo.switch_of("mem0")
        path = topo.switch_path(src_sw, dst_sw, topo.default_policy)
        assert route.hops == len(path)

    def test_last_hop_points_at_target_ni(self):
        topo = self.make_attached_mesh()
        route = RouteSet(topo).route("cpu0", "mem1")
        dst_sw = topo.switch_of("mem1")
        assert route[-1] == topo.port_toward(dst_sw, "mem1")

    def test_intermediate_hops_follow_the_path(self):
        topo = self.make_attached_mesh()
        route = RouteSet(topo, "dor").route("cpu0", "mem1")
        path = topo.switch_path(topo.switch_of("cpu0"), topo.switch_of("mem1"), "dor")
        for i in range(len(path) - 1):
            assert route[i] == topo.port_toward(path[i], path[i + 1])

    def test_same_switch_pair_has_single_hop_route(self):
        topo = star(2)
        topo.add_initiator("cpu")
        topo.add_target("mem")
        topo.attach("cpu", "hub")
        topo.attach("mem", "hub")
        route = RouteSet(topo).route("cpu", "mem")
        assert route.hops == 1
        assert route[0] == topo.port_toward("hub", "mem")

    def test_dor_vs_shortest_can_differ_but_both_valid(self):
        topo = mesh(3, 3)
        topo.add_initiator("cpu")
        topo.add_target("mem")
        topo.attach("cpu", "sw_0_0")
        topo.attach("mem", "sw_2_2")
        dor = RouteSet(topo, "dor").route("cpu", "mem")
        shortest = RouteSet(topo, "shortest").route("cpu", "mem")
        assert dor.hops == shortest.hops == 5  # 4 fabric hops + ejection

    def test_ring_routes_take_short_way_around(self):
        topo = ring(6)
        topo.add_initiator("cpu")
        topo.add_target("mem")
        topo.attach("cpu", "sw_0")
        topo.attach("mem", "sw_5")  # one hop the short way
        route = RouteSet(topo).route("cpu", "mem")
        assert route.hops == 2  # sw_0 -> sw_5 -> eject
