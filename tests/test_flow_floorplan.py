"""Unit tests for floorplanning and link pipelining."""

import pytest

from repro.flow.floorplan import (
    Floorplan,
    MM_PER_STAGE_AT_1GHZ,
    floorplan_topology,
    stages_for_length,
)
from repro.network.topology import attach_round_robin, mesh, ring, spidergon, star

PARENT_POSITIONS = {
    ("ring-6", 0): {
        "sw_0": (1.0, 1.0), "sw_1": (0.0, 1.0), "sw_2": (0.0, 0.0),
        "sw_3": (1.0, 0.0), "sw_4": (2.0, 0.0), "sw_5": (2.0, 1.0),
    },
    ("ring-6", 7): {
        "sw_0": (1.0, 1.0), "sw_1": (2.0, 1.0), "sw_2": (2.0, 0.0),
        "sw_3": (1.0, 0.0), "sw_4": (0.0, 0.0), "sw_5": (0.0, 1.0),
    },
    ("star-4", 0): {
        "hub": (1.0, 1.0), "leaf_0": (2.0, 0.0), "leaf_1": (0.0, 1.0),
        "leaf_2": (1.0, 0.0), "leaf_3": (2.0, 1.0),
    },
    ("star-4", 7): {
        "hub": (1.0, 0.0), "leaf_0": (0.0, 1.0), "leaf_1": (1.0, 1.0),
        "leaf_2": (2.0, 0.0), "leaf_3": (0.0, 0.0),
    },
    ("spidergon-4", 0): {
        "sw_0": (1.0, 0.0), "sw_1": (0.0, 1.0), "sw_2": (0.0, 0.0), "sw_3": (1.0, 1.0),
    },
    ("spidergon-4", 7): {
        "sw_0": (0.0, 1.0), "sw_1": (1.0, 0.0), "sw_2": (1.0, 1.0), "sw_3": (0.0, 0.0),
    },
}


class TestStagesForLength:
    def test_short_wire_needs_one_stage(self):
        assert stages_for_length(0.5, 1000) == 1

    def test_long_wire_needs_more(self):
        assert stages_for_length(MM_PER_STAGE_AT_1GHZ * 2.5, 1000) == 3

    def test_faster_clock_shrinks_reach(self):
        length = MM_PER_STAGE_AT_1GHZ * 1.5
        assert stages_for_length(length, 2000) > stages_for_length(length, 500)

    def test_validation(self):
        with pytest.raises(ValueError):
            stages_for_length(-1, 1000)
        with pytest.raises(ValueError):
            stages_for_length(1, 0)


class TestMeshPlacement:
    def test_mesh_placed_on_its_own_grid(self):
        topo = mesh(2, 3)
        plan = floorplan_topology(topo, tile_mm=1.0)
        assert plan.positions["sw_0_0"] == (0.0, 0.0)
        assert plan.positions["sw_2_1"] == (2.0, 1.0)

    def test_mesh_links_are_one_tile_long(self):
        topo = mesh(2, 2)
        plan = floorplan_topology(topo, tile_mm=1.0)
        assert all(
            length == pytest.approx(1.0) for length in plan.link_lengths_mm.values()
        )

    def test_bounding_box(self):
        topo = mesh(2, 2)
        plan = floorplan_topology(topo, tile_mm=1.0)
        assert plan.bounding_box_mm2 () == pytest.approx(4.0)

    def test_stage_queries(self):
        topo = mesh(2, 2)
        plan = floorplan_topology(topo, tile_mm=1.0)
        assert plan.stages_for("sw_0_0", "sw_1_0", 1000) == 1
        assert plan.max_stages(1000) == 1
        with pytest.raises(KeyError):
            plan.stages_for("sw_0_0", "sw_1_1", 1000)  # not an edge


class TestAnnealedPlacement:
    def test_ring_placement_covers_all_switches(self):
        topo = ring(6)
        plan = floorplan_topology(topo, seed=4)
        assert set(plan.positions) == set(topo.switches)
        # No two switches share a tile.
        assert len(set(plan.positions.values())) == len(topo.switches)

    def test_star_hub_placement_is_compact(self):
        topo = star(4)
        plan = floorplan_topology(topo, seed=1)
        # Total wirelength must beat the worst diagonal placement.
        assert plan.total_wirelength_mm < 4 * 4.0

    def test_deterministic_per_seed(self):
        topo = ring(5)
        a = floorplan_topology(topo, seed=9)
        b = floorplan_topology(topo, seed=9)
        assert a.positions == b.positions

    @pytest.mark.parametrize("name, make", [
        ("ring-6", lambda: ring(6)),
        ("star-4", lambda: star(4)),
        ("spidergon-4", lambda: spidergon(4)),
    ])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_positions_are_the_parent_commits(self, name, make, seed):
        # Recorded at the commit before the move loop stopped walking
        # the networkx edge view (PR 20).
        assert floorplan_topology(make(), seed=seed).positions == PARENT_POSITIONS[name, seed]

    def test_empty_topology_rejected(self):
        from repro.network.topology import Topology

        with pytest.raises(ValueError):
            floorplan_topology(Topology("empty"))

    def test_attached_nis_do_not_break_floorplan(self):
        topo = mesh(2, 2)
        attach_round_robin(topo, 2, 2)
        plan = floorplan_topology(topo)
        assert len(plan.positions) == 4  # switches only
