"""Unit tests for design-space exploration."""

import pytest

from repro.flow.dse import (
    DesignPoint,
    explore_design_space,
    pareto_frontier,
    render_space,
)
from repro.flow.taskgraph import demo_multimedia_soc
from repro.network.topology import mesh, star


@pytest.fixture(scope="module")
def core_graph():
    return demo_multimedia_soc()[2]


@pytest.fixture(scope="module")
def points(core_graph):
    return explore_design_space(
        core_graph,
        [mesh(2, 2), star(3)],
        flit_widths=(16, 64),
        buffer_depths=(4,),
        seed=2,
        anneal_iterations=200,
    )


def dp(lat, area, power, feasible=True, name="t"):
    return DesignPoint(
        topology_name=name, flit_width=32, buffer_depth=4,
        latency_ns=lat, area_mm2=area, power_mw=power,
        freq_mhz=1000.0, feasible=feasible,
    )


class TestDominance:
    def test_strictly_better_dominates(self):
        assert dp(1, 1, 1).dominates(dp(2, 2, 2))

    def test_equal_does_not_dominate(self):
        assert not dp(1, 1, 1).dominates(dp(1, 1, 1))

    def test_tradeoff_is_incomparable(self):
        a, b = dp(1, 2, 2), dp(2, 1, 1)
        assert not a.dominates(b) and not b.dominates(a)

    def test_infeasible_never_dominates(self):
        assert not dp(0.1, 0.1, 0.1, feasible=False).dominates(dp(9, 9, 9))

    def test_feasible_dominates_infeasible(self):
        assert dp(9, 9, 9).dominates(dp(0.1, 0.1, 0.1, feasible=False))


class TestExploration:
    def test_full_cross_product(self, points):
        assert len(points) == 2 * 2 * 1

    def test_wider_flits_trade_latency_for_area(self, points):
        by_key = {(p.topology_name, p.flit_width): p for p in points}
        for name in ("mesh2x2", "star3"):
            narrow = by_key[(name, 16)]
            wide = by_key[(name, 64)]
            assert wide.latency_ns < narrow.latency_ns
            assert wide.area_mm2 > narrow.area_mm2

    def test_needs_candidates(self, core_graph):
        with pytest.raises(ValueError):
            explore_design_space(core_graph, [])


class TestFrontier:
    def test_frontier_is_nondominated(self, points):
        frontier = pareto_frontier(points)
        assert frontier
        for p in frontier:
            assert not any(q.dominates(p) for q in points)

    def test_dominated_points_excluded(self):
        pts = [dp(1, 1, 1), dp(2, 2, 2), dp(0.5, 3, 3)]
        frontier = pareto_frontier(pts)
        assert dp(2, 2, 2) not in frontier
        assert len(frontier) == 2

    def test_frontier_sorted_by_latency(self, points):
        frontier = pareto_frontier(points)
        lats = [p.latency_ns for p in frontier]
        assert lats == sorted(lats)

    def test_render_marks_frontier(self, points):
        frontier = pareto_frontier(points)
        text = render_space(points, frontier, "test space")
        assert "test space" in text
        assert text.count("*") == len(frontier)


class TestPointCostsWhatItsAnswerNeeds:
    # The ``points`` fixture's grid, so a re-run must equal it.
    GRID = dict(flit_widths=(16, 64), buffer_depths=(4,), seed=2, anneal_iterations=200)

    def test_no_point_floorplans(self, core_graph, points, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a design point floorplanned")

        monkeypatch.setattr("repro.flow.selection.floorplan_topology", boom)
        again = explore_design_space(core_graph, [mesh(2, 2), star(3)], **self.GRID)
        assert again == points

    def test_candidate_fabrics_not_mutated(self, core_graph):
        fabrics = [mesh(2, 2), star(3)]
        tokens = [f.cache_token() for f in fabrics]
        explore_design_space(core_graph, fabrics, **self.GRID)
        assert [f.nis for f in fabrics] == [[], []]  # evaluate_candidate copied
        assert [f.cache_token() for f in fabrics] == tokens


class TestValueIdentity:
    """The frontier must compare points by value, never ``id()``.

    Points restored from the result store, a cache pickle or a worker
    process are equal to -- but not the same object as -- the originals;
    identity-based marking silently declared every restored point
    off-frontier."""

    def test_pickle_round_trip_preserves_frontier(self, points):
        import pickle

        restored = pickle.loads(pickle.dumps(points))
        assert restored == points
        assert all(a is not b for a, b in zip(restored, points))
        assert pareto_frontier(restored) == pareto_frontier(points)

    def test_restored_points_earn_their_frontier_marker(self, points):
        import pickle

        frontier = pareto_frontier(points)
        restored_frontier = pickle.loads(pickle.dumps(frontier))
        text = render_space(points, restored_frontier, "restored")
        assert text.count("*") == len(frontier)

    def test_value_duplicates_collapse_to_one_frontier_entry(self):
        a, b = dp(1, 1, 1), dp(1, 1, 1)
        assert a is not b
        assert pareto_frontier([a, b]) == [a]

    def test_equal_points_are_mutually_nondominating(self):
        a, b = dp(1, 1, 1), dp(1, 1, 1)
        assert not a.dominates(b) and not b.dominates(a)
        # ...and neither knocks the other off a mixed frontier.
        frontier = pareto_frontier([a, b, dp(2, 2, 2)])
        assert frontier == [dp(1, 1, 1)]
