"""Unit tests for the topology library."""

import pytest

from repro.network.topology import (
    Topology,
    TopologyError,
    attach_round_robin,
    custom_topology,
    mesh,
    ring,
    spidergon,
    star,
    torus,
)


class TestConstruction:
    def test_connect_allocates_ports_in_order(self):
        t = Topology("t")
        t.add_switch("a")
        t.add_switch("b")
        t.add_switch("c")
        t.connect("a", "b")
        t.connect("a", "c")
        assert t.ports_of("a") == ["b", "c"]
        assert t.port_toward("a", "c") == 1
        assert t.port_toward("b", "a") == 0

    def test_attach_consumes_a_port(self):
        t = Topology("t")
        t.add_switch("s")
        t.add_initiator("cpu")
        t.attach("cpu", "s")
        assert t.radix_of("s") == 1
        assert t.switch_of("cpu") == "s"

    def test_duplicate_names_rejected(self):
        t = Topology("t")
        t.add_switch("x")
        with pytest.raises(TopologyError):
            t.add_switch("x")
        with pytest.raises(TopologyError):
            t.add_initiator("x")

    def test_self_loop_rejected(self):
        t = Topology("t")
        t.add_switch("a")
        with pytest.raises(TopologyError):
            t.connect("a", "a")

    def test_double_edge_rejected(self):
        t = Topology("t")
        t.add_switch("a")
        t.add_switch("b")
        t.connect("a", "b")
        with pytest.raises(TopologyError, match="already connected"):
            t.connect("a", "b")

    def test_attach_twice_rejected(self):
        t = Topology("t")
        t.add_switch("a")
        t.add_switch("b")
        t.add_target("m")
        t.attach("m", "a")
        with pytest.raises(TopologyError, match="already attached"):
            t.attach("m", "b")

    def test_connect_requires_switches(self):
        t = Topology("t")
        t.add_switch("a")
        t.add_initiator("cpu")
        with pytest.raises(TopologyError, match="not a switch"):
            t.connect("a", "cpu")

    def test_validate_catches_unattached_ni(self):
        t = Topology("t")
        t.add_switch("a")
        t.add_initiator("cpu")
        with pytest.raises(TopologyError, match="unattached"):
            t.validate()

    def test_validate_catches_disconnected_fabric(self):
        t = Topology("t")
        t.add_switch("a")
        t.add_switch("b")
        with pytest.raises(TopologyError, match="not connected"):
            t.validate()

    def test_port_toward_unknown_neighbor(self):
        t = Topology("t")
        t.add_switch("a")
        with pytest.raises(TopologyError, match="no port toward"):
            t.port_toward("a", "zzz")


class TestMesh:
    def test_shape(self):
        t = mesh(3, 4)
        assert len(t.switches) == 12
        assert len(t.edges) == 3 * 3 + 4 * 2  # rows*(cols-1)+cols*(rows-1)

    def test_corner_and_center_degrees(self):
        t = mesh(3, 3)
        assert t.radix_of("sw_0_0") == 2
        assert t.radix_of("sw_1_1") == 4

    def test_coords_enable_dor(self):
        t = mesh(2, 2)
        assert t.default_policy == "dor"

    def test_dor_goes_x_first(self):
        t = mesh(3, 3)
        path = t.switch_path("sw_0_0", "sw_2_2", "dor")
        assert path == ["sw_0_0", "sw_1_0", "sw_2_0", "sw_2_1", "sw_2_2"]

    def test_invalid_dims(self):
        with pytest.raises(TopologyError):
            mesh(0, 3)


class TestOtherFactories:
    def test_torus_degree_uniform(self):
        t = torus(3, 3)
        assert all(t.radix_of(s) == 4 for s in t.switches)
        assert t.default_policy == "shortest"

    def test_torus_min_size(self):
        with pytest.raises(TopologyError):
            torus(2, 4)

    def test_ring(self):
        t = ring(5)
        assert all(t.radix_of(s) == 2 for s in t.switches)

    def test_ring_min_size(self):
        with pytest.raises(TopologyError):
            ring(2)

    def test_star(self):
        t = star(4)
        assert t.radix_of("hub") == 4
        assert all(t.radix_of(f"leaf_{i}") == 1 for i in range(4))

    def test_spidergon_cross_links(self):
        t = spidergon(6)
        assert all(t.radix_of(s) == 3 for s in t.switches)

    def test_spidergon_odd_rejected(self):
        with pytest.raises(TopologyError):
            spidergon(5)

    def test_custom_topology(self):
        t = custom_topology("c", [("a", "b"), ("b", "c")])
        assert set(t.switches) == {"a", "b", "c"}
        assert t.has_edge("a", "b")

    def test_attach_round_robin_spreads_cores(self):
        t = mesh(2, 2)
        cpus, mems = attach_round_robin(t, 4, 4)
        assert len(cpus) == 4 and len(mems) == 4
        # Every switch got exactly 2 NIs.
        assert all(sum(p in t.nis for p in t.ports_of(s)) == 2 for s in t.switches)
        t.validate()

    def test_unknown_policy_rejected(self):
        t = mesh(2, 2)
        with pytest.raises(TopologyError, match="unknown routing policy"):
            t.switch_path("sw_0_0", "sw_1_1", "fancy")

    def test_dor_without_coords_rejected(self):
        t = ring(4)
        with pytest.raises(TopologyError, match="coordinates"):
            t.switch_path("sw_0", "sw_2", "dor")

    def test_shortest_path_to_an_unreachable_switch_raises_topology_error(self):
        t = custom_topology("split", [("a", "b"), ("c", "d")])
        with pytest.raises(TopologyError, match="no path from 'a' to 'd'"):
            t.switch_path("a", "d", "shortest")

    @pytest.mark.parametrize("src, dst", [("nope", "sw_1"), ("sw_0", "nope")])
    def test_shortest_path_with_an_unknown_switch_raises_topology_error(self, src, dst):
        t = ring(4)
        with pytest.raises(TopologyError, match="'nope' is not a switch"):
            t.switch_path(src, dst, "shortest")

    def test_shortest_path_to_an_ni_raises_topology_error(self):
        t = ring(4)
        attach_round_robin(t, 1, 1)
        with pytest.raises(TopologyError, match="'cpu0' is not a switch"):
            t.switch_path("sw_0", "cpu0", "shortest")
