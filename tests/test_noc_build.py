"""Unit tests for the NoC builder (structure, not traffic)."""

import pytest

from repro.core.config import NocParameters
from repro.network.noc import Noc, NocBuildConfig
from repro.network.topology import attach_round_robin, mesh, star
from repro.network.traffic import UniformRandomTraffic
from repro.sim.kernel import SimulationError


def small_noc(**kwargs):
    topo = mesh(2, 2)
    cpus, mems = attach_round_robin(topo, 2, 2)
    cfg = NocBuildConfig(**kwargs) if kwargs else None
    return Noc(topo, cfg), cpus, mems


class TestStructure:
    def test_one_switch_component_per_topology_switch(self):
        noc, cpus, mems = small_noc()
        assert set(noc.switches) == set(noc.topology.switches)

    def test_switch_radix_matches_topology(self):
        noc, _, _ = small_noc()
        for s, sw in noc.switches.items():
            assert sw.config.n_inputs == noc.topology.radix_of(s)
            assert sw.config.n_outputs == noc.topology.radix_of(s)

    def test_one_ni_per_core(self):
        noc, cpus, mems = small_noc()
        assert set(noc.initiator_nis) == set(cpus)
        assert set(noc.target_nis) == set(mems)

    def test_two_links_per_edge_and_attachment(self):
        noc, _, _ = small_noc()
        topo = noc.topology
        expected = 2 * len(topo.edges) + 2 * len(topo.nis)
        assert len(noc.links) == expected

    def test_node_ids_unique_and_dense(self):
        noc, _, _ = small_noc()
        ids = sorted(noc.node_ids.values())
        assert ids == list(range(len(ids)))

    def test_routing_policy_defaults_to_dor_on_mesh(self):
        noc, _, _ = small_noc()
        assert noc.routing_policy == "dor"

    def test_window_sized_for_link(self):
        noc, _, _ = small_noc()
        from repro.core.flow_control import window_for_link

        assert noc.link_window == window_for_link(1)

    def test_initiator_tables_cover_all_targets(self):
        noc, cpus, mems = small_noc()
        for c in cpus:
            table = noc.initiator_nis[c].routing
            assert set(table.forward) == set(mems)

    def test_target_tables_cover_all_initiators(self):
        noc, cpus, mems = small_noc()
        for m in mems:
            table = noc.target_nis[m].routing
            assert set(table.reverse) == {noc.node_ids[c] for c in cpus}


class TestValidation:
    def test_too_many_hops_rejected(self):
        topo = mesh(1, 12)  # a 12-switch chain
        topo.add_initiator("cpu")
        topo.add_target("mem")
        topo.attach("cpu", "sw_0_0")
        topo.attach("mem", "sw_11_0")  # 12 hops away, beyond max_hops=4
        with pytest.raises(SimulationError, match="max_hops"):
            Noc(topo, NocBuildConfig(params=NocParameters(max_hops=4)))

    def test_too_wide_radix_rejected(self):
        topo = star(9)  # hub radix 9 + NI > 2**3
        topo.add_initiator("cpu")
        topo.add_target("mem")
        topo.attach("cpu", "hub")
        topo.attach("mem", "leaf_0")
        with pytest.raises(SimulationError, match="port_bits"):
            Noc(topo, NocBuildConfig(params=NocParameters(port_bits=3)))

    def test_node_id_space_enforced(self):
        topo = mesh(2, 2)
        attach_round_robin(topo, 3, 2)
        with pytest.raises(SimulationError, match="node id space"):
            Noc(topo, NocBuildConfig(params=NocParameters(node_id_bits=2)))

    def test_unattached_topology_rejected(self):
        topo = mesh(2, 2)
        topo.add_initiator("cpu")
        with pytest.raises(Exception, match="unattached"):
            Noc(topo)


class TestPopulation:
    def test_add_master_on_target_rejected(self):
        noc, cpus, mems = small_noc()
        with pytest.raises(SimulationError, match="not an initiator"):
            noc.add_traffic_master(mems[0], UniformRandomTraffic(mems, 0.1))

    def test_add_slave_on_initiator_rejected(self):
        noc, cpus, mems = small_noc()
        with pytest.raises(SimulationError, match="not a target"):
            noc.add_memory_slave(cpus[0])

    def test_populate_fills_all_roles(self):
        noc, cpus, mems = small_noc()
        noc.populate(
            {c: UniformRandomTraffic(mems, 0.1, seed=i) for i, c in enumerate(cpus)}
        )
        assert set(noc.masters) == set(cpus)
        assert set(noc.slaves) == set(mems)

    def test_describe_summarizes_structure_and_run(self):
        noc, cpus, mems = small_noc()
        text = noc.describe()
        assert "4 switches" in text and "2 initiators" in text
        noc.populate(
            {cpus[0]: UniformRandomTraffic(mems, 0.1, seed=1)},
            max_transactions=5,
        )
        noc.run_until_drained()
        text = noc.describe()
        assert "transactions" in text and "flit-hops" in text

    def test_run_until_drained_requires_quota(self):
        noc, cpus, mems = small_noc()
        noc.populate({cpus[0]: UniformRandomTraffic(mems, 0.1)})
        with pytest.raises(SimulationError, match="max_transactions"):
            noc.run_until_drained()
