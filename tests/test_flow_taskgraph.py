"""Unit tests for task graphs and core graphs."""

import pytest

from repro.flow.taskgraph import (
    CoreGraph,
    CoreSpec,
    TaskGraph,
    demo_multimedia_soc,
    demo_telecom_soc,
)


def cores():
    return [
        CoreSpec("cpu0", True),
        CoreSpec("cpu1", True),
        CoreSpec("mem0", False),
        CoreSpec("mem1", False),
    ]


class TestTaskGraph:
    def test_flows_accumulate(self):
        tg = TaskGraph("t")
        tg.add_flow("a", "b", 10)
        tg.add_flow("a", "b", 5)
        assert tg.flows() == [("a", "b", 15)]

    def test_zero_rate_rejected(self):
        tg = TaskGraph("t")
        with pytest.raises(ValueError):
            tg.add_flow("a", "b", 0)

    def test_fold_moves_flows_to_cores(self):
        tg = TaskGraph("t")
        tg.add_flow("ta", "tm", 10)
        cg = tg.fold({"ta": "cpu0", "tm": "mem0"}, cores())
        assert cg.demands() == [("cpu0", "mem0", 10)]

    def test_fold_drops_intra_core_flows(self):
        tg = TaskGraph("t")
        tg.add_flow("t1", "t2", 10)
        cg = tg.fold({"t1": "cpu0", "t2": "cpu0"}, cores())
        assert cg.demands() == []

    def test_fold_requires_full_assignment(self):
        tg = TaskGraph("t")
        tg.add_flow("ta", "tb", 1)
        with pytest.raises(ValueError, match="no core assignment"):
            tg.fold({"ta": "cpu0"}, cores())


class TestCoreGraph:
    def test_demand_directions(self):
        cg = CoreGraph("c", cores())
        cg.add_demand("cpu0", "mem0", 10)  # write-ish
        cg.add_demand("mem0", "cpu0", 4)  # read-ish
        assert cg.demand_between("cpu0", "mem0") == 14

    def test_initiator_to_initiator_rejected(self):
        cg = CoreGraph("c", cores())
        with pytest.raises(ValueError, match="initiators"):
            cg.add_demand("cpu0", "cpu1", 5)

    def test_target_to_target_rejected(self):
        cg = CoreGraph("c", cores())
        with pytest.raises(ValueError, match="targets"):
            cg.add_demand("mem0", "mem1", 5)

    def test_unknown_core_rejected(self):
        cg = CoreGraph("c", cores())
        with pytest.raises(ValueError, match="unknown core"):
            cg.add_demand("ghost", "mem0", 5)

    def test_duplicate_core_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CoreGraph("c", [CoreSpec("x", True), CoreSpec("x", False)])

    def test_partition_properties(self):
        cg = CoreGraph("c", cores())
        assert cg.initiators == ["cpu0", "cpu1"]
        assert cg.targets == ["mem0", "mem1"]

    def test_initiator_demands_fold_both_directions(self):
        cg = CoreGraph("c", cores())
        cg.add_demand("cpu0", "mem0", 10)
        cg.add_demand("mem1", "cpu0", 6)
        assert cg.initiator_demands("cpu0") == {"mem0": 10, "mem1": 6}

    def test_demands_lists_each_demand(self):
        cg = CoreGraph("c", cores())
        cg.add_demand("cpu0", "mem0", 10)
        cg.add_demand("cpu1", "mem1", 5)
        assert cg.demands() == [("cpu0", "mem0", 10), ("cpu1", "mem1", 5)]


class TestDemoSoc:
    def test_demo_is_well_formed(self):
        tg, assignment, cg = demo_multimedia_soc()
        assert set(assignment) == set(tg.tasks)
        assert len(cg.initiators) == 4
        assert len(cg.targets) == 4
        assert sum(rate for _, _, rate in cg.demands()) > 0

    def test_demo_demands_touch_every_core(self):
        _, _, cg = demo_multimedia_soc()
        touched = set()
        for a, b, _ in cg.demands():
            touched.add(a)
            touched.add(b)
        assert touched == set(cg.cores)


class TestTelecomDemo:
    def test_well_formed(self):
        tg, assignment, cg = demo_telecom_soc()
        assert set(assignment) == set(tg.tasks)
        assert len(cg.initiators) == 5
        assert len(cg.targets) == 5
        assert sum(rate for _, _, rate in cg.demands()) > 0

    def test_folding_keeps_demand_directions_legal(self):
        _, _, cg = demo_telecom_soc()
        for src, dst, rate in cg.demands():
            assert cg.cores[src].is_initiator != cg.cores[dst].is_initiator
            assert rate > 0

    def test_both_demos_differ_in_shape(self):
        """The pipeline demo concentrates demand; the telecom demo
        spreads it -- selection should see different pictures."""
        _, _, mm = demo_multimedia_soc()
        _, _, tc = demo_telecom_soc()
        assert len(tc.demands()) > len(mm.demands())
        assert set(tc.cores) != set(mm.cores)

    def test_telecom_maps_and_selects(self):
        from repro.flow import select_topology
        from repro.network.topology import mesh, star

        _, _, cg = demo_telecom_soc()
        results = select_topology(cg, [mesh(2, 3), star(4)], seed=1)
        assert len(results) == 2
        assert all(r.feasible for r in results)
