"""Unit tests for wormhole deadlock analysis (channel dependency graphs)."""

import networkx as nx
import pytest

from repro.network.deadlock import (
    channel_dependency_graph,
    check_deadlock_freedom,
)
from repro.network.topology import attach_round_robin, mesh, ring, star, torus


class TestChannelDependencyGraph:
    def test_mesh_dor_is_acyclic(self):
        topo = mesh(3, 3)
        attach_round_robin(topo, 4, 4)
        report = check_deadlock_freedom(topo, "dor")
        assert report.is_deadlock_free
        assert report.cycles == []
        assert report.n_channels > 0

    def test_larger_mesh_dor_still_acyclic(self):
        topo = mesh(4, 4)
        attach_round_robin(topo, 6, 6)
        assert check_deadlock_freedom(topo, "dor").is_deadlock_free

    def test_ring_with_all_pairs_has_cycle(self):
        """The textbook wormhole deadlock: cyclic channel dependencies
        around a ring without virtual channels."""
        topo = ring(6)
        attach_round_robin(topo, 3, 3)
        report = check_deadlock_freedom(topo)
        assert not report.is_deadlock_free
        assert len(report.cycles) >= 1
        # The reported cycle is a genuine cycle: consecutive channels
        # chain head to tail.
        cycle = report.cycles[0]
        for (a1, b1), (a2, b2) in zip(cycle, cycle[1:]):
            assert b1 == a2

    def test_star_is_trivially_deadlock_free(self):
        topo = star(4)
        attach_round_robin(topo, 3, 3)
        assert check_deadlock_freedom(topo).is_deadlock_free

    def test_cdg_nodes_are_fabric_channels_only(self):
        topo = mesh(2, 2)
        attach_round_robin(topo, 2, 2)
        cdg = channel_dependency_graph(topo)
        switches = set(topo.switches)
        for a, b in cdg:
            assert a in switches and b in switches

    def test_describe_both_ways(self):
        good = mesh(2, 2)
        attach_round_robin(good, 2, 2)
        text = check_deadlock_freedom(good).describe()
        assert "deadlock-free" in text

        bad = ring(6)
        attach_round_robin(bad, 3, 3)
        text = check_deadlock_freedom(bad).describe()
        assert "NOT deadlock-free" in text
        assert "->" in text

    def test_policy_changes_the_answer(self):
        """On a mesh, both DOR and shortest-path route sets are acyclic;
        the dependency counts still differ because the paths differ."""
        topo = mesh(3, 3)
        attach_round_robin(topo, 4, 4)
        dor = check_deadlock_freedom(topo, "dor")
        short = check_deadlock_freedom(topo, "shortest")
        assert dor.is_deadlock_free and short.is_deadlock_free

    def test_torus_under_few_pairs_may_be_acyclic(self):
        """Deadlock freedom is a property of the *route set*, not the
        topology alone: a lightly loaded torus can be fine."""
        topo = torus(3, 3)
        topo.add_initiator("cpu")
        topo.add_target("mem")
        topo.attach("cpu", "sw_0_0")
        topo.attach("mem", "sw_1_1")
        assert check_deadlock_freedom(topo).is_deadlock_free


class TestCycleEnumeration:
    """The report counts cycles truthfully (the pre-fix code stopped at
    the first one found, so every cyclic topology claimed exactly 1)."""

    def test_multiple_cycles_are_enumerated(self):
        # A bigger ring under shortest-path routing wraps dependencies
        # in both directions: two distinct cycles, not "1".
        topo = ring(8)
        attach_round_robin(topo, 4, 4)
        report = check_deadlock_freedom(topo, "shortest")
        assert not report.is_deadlock_free
        assert len(report.cycles) >= 2
        assert not report.cycles_truncated
        # Every reported cycle is genuine, including the wrap-around.
        for cycle in report.cycles:
            closed = cycle + [cycle[0]]
            for (a1, b1), (a2, b2) in zip(closed, closed[1:]):
                assert b1 == a2

    def test_enumeration_is_capped_and_flagged(self):
        # A torus under all-pairs shortest routing has combinatorially
        # many dependency cycles; enumeration must stop at the cap and
        # say so instead of pretending the count is exact.
        topo = torus(4, 4)
        attach_round_robin(topo, 8, 8)
        report = check_deadlock_freedom(topo, "shortest")
        assert report.cycles_truncated
        assert len(report.cycles) == 64  # CYCLE_SAMPLE_CAP
        capped = check_deadlock_freedom(topo, "shortest", cycle_cap=2)
        assert capped.cycles_truncated and len(capped.cycles) == 2
        assert "2+" in capped.describe()

    def test_acyclic_report_is_never_truncated(self):
        topo = mesh(3, 3)
        attach_round_robin(topo, 4, 4)
        report = check_deadlock_freedom(topo, "dor")
        assert report.is_deadlock_free
        assert not report.cycles_truncated


def _rotated(cycle):
    """A cycle written from its least channel: one spelling per cycle."""
    i = cycle.index(min(cycle))
    return tuple(cycle[i:] + cycle[:i])


class TestCyclesAgainstNetworkx:
    """The enumeration finds exactly networkx's elementary cycles, each
    once, on fabrics with none, a few and hundreds."""

    @pytest.mark.parametrize("make, cores, policy", [
        (lambda: ring(6), 3, ""),
        (lambda: ring(6), 3, "shortest"),
        (lambda: ring(8), 4, "shortest"),
        (lambda: torus(3, 3), 3, ""),
        (lambda: torus(3, 3), 9, "shortest"),
        (lambda: torus(4, 4), 6, "shortest"),
        (lambda: torus(3, 4), 9, ""),
    ], ids=["ring6", "ring6-shortest", "ring8-shortest", "torus3x3",
            "torus3x3-shortest", "torus4x4-shortest", "torus3x4"])
    def test_cycle_set_equals_networkx(self, make, cores, policy):
        topo = make()
        attach_round_robin(topo, cores, cores)
        report = check_deadlock_freedom(topo, policy, cycle_cap=10**6)
        ours = [_rotated(c) for c in report.cycles]
        cdg = channel_dependency_graph(topo, policy)
        reference = nx.DiGraph()
        reference.add_nodes_from(cdg)
        reference.add_edges_from((a, b) for a in cdg for b in cdg[a])
        assert len(ours) == len(set(ours))
        assert set(ours) == {_rotated(c) for c in nx.simple_cycles(reference)}
        assert report.n_channels == reference.number_of_nodes()
        assert report.n_dependencies == reference.number_of_edges()
