"""Unit tests for the extended topology factories and trace traffic."""

import pytest

from repro.network.topology import (
    TopologyError,
    attach_round_robin,
    fat_tree,
    fully_connected,
    hypercube,
)
from repro.network.traffic import TraceTraffic, TxnTemplate


class TestFullyConnected:
    def test_edge_count(self):
        t = fully_connected(5)
        assert len(t.edges) == 10

    def test_diameter_one(self):
        t = fully_connected(4)
        path = t.switch_path("sw_0", "sw_3")
        assert len(path) == 2

    def test_min_size(self):
        with pytest.raises(TopologyError):
            fully_connected(1)


class TestHypercube:
    def test_degree_equals_dimension(self):
        t = hypercube(3)
        assert all(t.radix_of(s) == 3 for s in t.switches)

    def test_switch_count(self):
        assert len(hypercube(4).switches) == 16

    def test_diameter_is_dimension(self):
        t = hypercube(3)
        path = t.switch_path("sw_0", "sw_7")  # 0b000 -> 0b111
        assert len(path) == 4  # 3 hops

    def test_dimension_bounds(self):
        with pytest.raises(TopologyError):
            hypercube(0)
        with pytest.raises(TopologyError):
            hypercube(7)


class TestFatTree:
    def test_leaves_connect_to_both_roots(self):
        t = fat_tree(4)
        for i in range(4):
            assert t.has_edge(f"leaf_{i}", "root_0")
            assert t.has_edge(f"leaf_{i}", "root_1")

    def test_path_diversity(self):
        import networkx as nx

        t = fat_tree(3)
        graph = nx.Graph(t.edges)
        paths = list(nx.all_shortest_paths(graph, "leaf_0", "leaf_2"))
        assert len(paths) == 2  # one through each root

    def test_min_size(self):
        with pytest.raises(TopologyError):
            fat_tree(1)


class TestExtendedTopologiesRunTraffic:
    @pytest.mark.parametrize("factory,arg", [
        (fully_connected, 4),
        (hypercube, 3),
        (fat_tree, 3),
    ])
    def test_traffic_flows(self, factory, arg):
        from repro.network.noc import Noc
        from repro.network.traffic import UniformRandomTraffic

        topo = factory(arg)
        cpus, mems = attach_round_robin(topo, 2, 2)
        noc = Noc(topo)
        noc.populate(
            {c: UniformRandomTraffic(mems, 0.08, seed=i) for i, c in enumerate(cpus)},
            max_transactions=15,
        )
        noc.run_until_drained(max_cycles=300_000)
        assert noc.total_completed() == 30


class TestTraceTraffic:
    TEXT = """\
# a comment

0 mem0 0x10 W 2
5 mem1 0 R 1 2
9 mem0 3 r 4
"""

    def test_parse_and_replay(self):
        t = TraceTraffic.from_text(self.TEXT)
        a = t.next_transaction(0)
        assert a == TxnTemplate("mem0", 0x10, False, 2, 0)
        assert t.next_transaction(3) is None
        b = t.next_transaction(5)
        assert b.thread_id == 2 and b.is_read
        c = t.next_transaction(20)
        assert c.burst_len == 4
        assert t.exhausted

    def test_render_roundtrip(self):
        t = TraceTraffic.from_text(self.TEXT)
        entries = []
        for cyc in range(30):
            tt = t.next_transaction(cyc)
            if tt:
                entries.append((cyc, tt))
        again = TraceTraffic.from_text(TraceTraffic.render(entries))
        for cyc, tt in entries:
            assert again.next_transaction(cyc + 100) == tt

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            TraceTraffic.from_text("0 mem0 0x10")

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            TraceTraffic.from_text("0 mem0 0 X 1")

    def test_from_file(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text(self.TEXT)
        t = TraceTraffic.from_file(str(path))
        assert t.next_transaction(0) is not None

    def test_reset(self):
        t = TraceTraffic.from_text("0 mem0 0 R 1\n")
        t.next_transaction(0)
        assert t.exhausted
        t.reset()
        assert not t.exhausted

    def test_drives_a_real_network(self):
        from repro.network.noc import Noc
        from repro.network.topology import mesh

        topo = mesh(2, 2)
        attach_round_robin(topo, 1, 2)
        noc = Noc(topo)
        trace = TraceTraffic.from_text(
            "0 mem0 0x4 W 1\n10 mem1 0x8 W 1\n50 mem0 0x4 R 1\n"
        )
        master = noc.add_traffic_master("cpu0", trace, max_transactions=3)
        noc.add_memory_slave("mem0")
        noc.add_memory_slave("mem1")
        noc.run_until_drained(max_cycles=100_000)
        assert master.completed == 3
        assert 0x4 in noc.slaves["mem0"].memory
        assert 0x8 in noc.slaves["mem1"].memory
