"""Unit tests for core-to-switch mapping."""

import pytest

from repro.flow.mapping import (
    anneal_mapping,
    apply_mapping,
    greedy_mapping,
    mapping_cost,
)
from repro.flow.taskgraph import CoreGraph, CoreSpec, demo_multimedia_soc
from repro.network.topology import mesh


def line_core_graph():
    """cpu0 <-> mem0 heavy, cpu1 <-> mem1 light."""
    cg = CoreGraph(
        "line",
        [
            CoreSpec("cpu0", True),
            CoreSpec("cpu1", True),
            CoreSpec("mem0", False),
            CoreSpec("mem1", False),
        ],
    )
    cg.add_demand("cpu0", "mem0", 100)
    cg.add_demand("cpu1", "mem1", 1)
    return cg


class TestMappingCost:
    def test_colocated_pair_costs_one_hop(self):
        cg = line_core_graph()
        topo = mesh(2, 2)
        mapping = {
            "cpu0": "sw_0_0", "mem0": "sw_0_0",
            "cpu1": "sw_1_1", "mem1": "sw_1_1",
        }
        assert mapping_cost(cg, topo, mapping) == 100 * 1 + 1 * 1

    def test_distance_weighs_cost(self):
        cg = line_core_graph()
        topo = mesh(2, 2)
        near = {
            "cpu0": "sw_0_0", "mem0": "sw_0_0",
            "cpu1": "sw_1_1", "mem1": "sw_1_1",
        }
        far = {
            "cpu0": "sw_0_0", "mem0": "sw_1_1",
            "cpu1": "sw_1_0", "mem1": "sw_0_1",
        }
        assert mapping_cost(cg, topo, near) < mapping_cost(cg, topo, far)


class TestGreedy:
    def test_heavy_pair_ends_up_adjacent(self):
        cg = line_core_graph()
        topo = mesh(3, 3)
        mapping = greedy_mapping(cg, topo)
        dist = topo.hop_matrix()[mapping["cpu0"]][mapping["mem0"]]
        assert dist <= 1

    def test_respects_capacity(self):
        cg = line_core_graph()
        topo = mesh(2, 2)
        mapping = greedy_mapping(cg, topo, max_radix=3)
        # Every mesh switch has 2 fabric ports -> capacity 1 NI each.
        loads = {}
        for sw in mapping.values():
            loads[sw] = loads.get(sw, 0) + 1
        assert all(v <= 1 for v in loads.values())

    def test_insufficient_capacity_rejected(self):
        cg = line_core_graph()
        topo = mesh(1, 2)  # 2 switches, degree 1 each
        with pytest.raises(ValueError, match="capacity"):
            greedy_mapping(cg, topo, max_radix=2)  # 1 slot per switch, 4 cores


class TestAnneal:
    def test_never_worse_than_greedy(self):
        _, _, cg = demo_multimedia_soc()
        topo = mesh(2, 2)
        greedy = greedy_mapping(cg, topo)
        annealed = anneal_mapping(cg, topo, initial=greedy, iterations=800, seed=3)
        assert mapping_cost(cg, topo, annealed) <= mapping_cost(cg, topo, greedy)

    def test_deterministic_per_seed(self):
        _, _, cg = demo_multimedia_soc()
        topo = mesh(2, 2)
        a = anneal_mapping(cg, topo, iterations=300, seed=11)
        b = anneal_mapping(cg, topo, iterations=300, seed=11)
        assert a == b

    def test_capacity_violating_initial_rejected(self):
        cg = line_core_graph()
        topo = mesh(2, 2)
        bad = {c: "sw_0_0" for c in cg.cores}  # all on one switch
        with pytest.raises(ValueError, match="capacity"):
            anneal_mapping(cg, topo, initial=bad, max_radix=3)

    def test_result_respects_capacity(self):
        _, _, cg = demo_multimedia_soc()
        topo = mesh(3, 3)
        mapping = anneal_mapping(cg, topo, max_radix=5, iterations=500, seed=2)
        loads = {}
        for sw in mapping.values():
            loads[sw] = loads.get(sw, 0) + 1
        for sw, n in loads.items():
            assert topo.radix_of(sw) + n <= 5


def fractional_core_graph():
    """Rates no float sum represents exactly: accumulation order shows."""
    cg = CoreGraph(
        "frac",
        [CoreSpec(f"i{k}", True) for k in range(4)]
        + [CoreSpec(f"t{k}", False) for k in range(4)],
    )
    for a in range(4):
        for b in range(4):
            cg.add_demand(f"i{a}", f"t{b}", 0.1 * (a + 1) + 0.37 * (b + 1) + (a * b) / 7.0)
    return cg


def anneal_grid_digest(core_graphs):
    """One sha256 over a grid of annealed mappings (sorted items), also
    checking each result keeps its initial mapping's key order."""
    import hashlib

    from repro.core.config import NocParameters
    from repro.network.topology import ring, spidergon

    fabrics = (lambda: mesh(2, 2), lambda: ring(6), lambda: spidergon(4), lambda: mesh(3, 3))
    digest = hashlib.sha256()
    for cg in core_graphs:
        for make in fabrics:
            for seed in (0, 3, 11):
                for params in (None, NocParameters(flit_width=16)):
                    for radix in (8, 6):
                        fabric = make()
                        initial = greedy_mapping(cg, fabric, radix)
                        frozen = dict(initial)
                        mapping = anneal_mapping(
                            cg, fabric, initial=initial, max_radix=radix,
                            iterations=600, seed=seed, bandwidth_params=params,
                        )
                        assert list(mapping) == list(initial)
                        assert initial == frozen  # the caller's dict is not the state
                        digest.update(repr((
                            cg.name, fabric.name, seed, params is not None, radix,
                            sorted(mapping.items()),
                        )).encode())
    return digest.hexdigest()


class TestAnnealIsTheParentCommits:
    """Literals recorded at the commit before the anneal moved onto flat
    index state (PR 20).  A mapping decides a design point's stored
    result under an unchanged key, so it may not move by one accept."""

    def test_demo_graph_grid(self):
        from repro.flow.taskgraph import demo_telecom_soc

        graphs = [demo_multimedia_soc()[2], demo_telecom_soc()[2]]
        assert anneal_grid_digest(graphs) == (
            "faac7de7ca2c194b2e8129aeb605728a83f4e8f6099662da4c06c586ef949112"
        )

    def test_fractional_rates_grid(self):
        assert anneal_grid_digest([fractional_core_graph()]) == (
            "9ea1463b14e402c682b4651108f17f185787e0982769b7a7c24456f5b011e91d"
        )


class TestFewerThanTwoCores:
    def test_one_core_returns_the_initial_mapping(self):
        # rng.sample(cores, 2) used to raise "Sample larger than population".
        cg = CoreGraph("one", [CoreSpec("a", True)])
        topo = mesh(2, 2)
        assert anneal_mapping(cg, topo, seed=1) == greedy_mapping(cg, topo)
        assert anneal_mapping(cg, topo, initial={"a": "sw_1_1"}) == {"a": "sw_1_1"}

    def test_one_core_initial_is_still_validated(self):
        cg = CoreGraph("one", [CoreSpec("a", True)])
        with pytest.raises(ValueError, match="capacity"):
            anneal_mapping(cg, mesh(2, 2), initial={"a": "sw_0_0"}, max_radix=2)

    def test_no_cores(self):
        assert anneal_mapping(CoreGraph("none", []), mesh(2, 2)) == {}


class TestBandwidthAwareAnnealing:
    def heavy_graph(self):
        """Demands big enough that concentration overloads links."""
        cg = CoreGraph(
            "heavy",
            [CoreSpec(f"cpu{i}", True) for i in range(3)]
            + [CoreSpec(f"mem{i}", False) for i in range(3)],
        )
        for i in range(3):
            cg.add_demand(f"cpu{i}", f"mem{i}", 900.0)
        return cg

    def test_penalty_zero_when_spread(self):
        from repro.core.config import NocParameters
        from repro.flow.mapping import bandwidth_penalty

        cg = self.heavy_graph()
        topo = mesh(3, 3)
        spread = {
            "cpu0": "sw_0_0", "mem0": "sw_0_0",
            "cpu1": "sw_2_0", "mem1": "sw_2_0",
            "cpu2": "sw_0_2", "mem2": "sw_0_2",
        }
        assert bandwidth_penalty(cg, topo, spread, NocParameters()) == 0.0

    def test_penalty_positive_when_stretched(self):
        from repro.core.config import NocParameters
        from repro.flow.mapping import bandwidth_penalty

        cg = self.heavy_graph()
        topo = mesh(3, 3)
        stretched = {
            "cpu0": "sw_0_0", "mem0": "sw_2_2",
            "cpu1": "sw_2_0", "mem1": "sw_0_2",
            "cpu2": "sw_0_2", "mem2": "sw_2_0",
        }
        assert bandwidth_penalty(cg, topo, stretched, NocParameters()) > 0.0

    def test_bandwidth_aware_anneal_reduces_pressure(self):
        from repro.core.config import NocParameters
        from repro.flow.mapping import bandwidth_penalty

        cg = self.heavy_graph()
        topo = mesh(3, 3)
        params = NocParameters(flit_width=16)  # narrow flits: more pressure
        aware = anneal_mapping(
            cg, topo, iterations=1200, seed=4, bandwidth_params=params
        )
        assert bandwidth_penalty(cg, topo, aware, params) == pytest.approx(0.0)


class TestApplyMapping:
    def test_builds_attached_topology(self):
        cg = line_core_graph()
        fabric = mesh(2, 2)
        mapping = greedy_mapping(cg, fabric)
        topo = apply_mapping(fabric, cg, mapping)
        topo.validate()
        assert set(topo.initiators) == {"cpu0", "cpu1"}
        assert set(topo.targets) == {"mem0", "mem1"}
        for core, sw in mapping.items():
            assert topo.switch_of(core) == sw

    def test_unmapped_core_rejected(self):
        cg = line_core_graph()
        fabric = mesh(2, 2)
        with pytest.raises(ValueError, match="unmapped"):
            apply_mapping(fabric, cg, {"cpu0": "sw_0_0"})
