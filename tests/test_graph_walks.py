"""The graph walks over ``Topology``'s port lists against networkx.

Routes, hop counts, closeness and the link order are computed over the
adjacency the topology keeps, and the demand order over the core
graph's rate map.  Every one of them must be the value -- and the
iteration order -- networkx gives for a graph built by the same
``add_node`` / ``add_edge`` calls, because mappings, cache keys and
stored results are derived from them.  networkx is the reference here
and nowhere on a build, sweep or serve path.
"""

import os
import subprocess
import sys
from unittest import mock

import networkx as nx
import pytest

from repro.flow.taskgraph import (
    CoreGraph,
    CoreSpec,
    TaskGraph,
    demo_multimedia_soc,
    demo_telecom_soc,
)
from repro.network.deadlock import check_deadlock_freedom
from repro.network.topology import (
    Topology,
    TopologyError,
    attach_round_robin,
    fat_tree,
    fully_connected,
    hypercube,
    mesh,
    ring,
    spidergon,
    star,
    torus,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _interleaved() -> Topology:
    """An irregular fabric whose links and NI attachments interleave,
    so NIs sit between switch neighbours in the port lists."""
    t = Topology("irregular")
    for s in ("e", "b", "a", "d", "c", "f", "g"):
        t.add_switch(s)
    t.add_initiator("cpu0")
    t.add_initiator("cpu1")
    t.add_target("mem0")
    t.add_target("mem1")
    t.connect("a", "b")
    t.attach("cpu0", "a")
    t.connect("c", "a")
    t.connect("e", "d")
    t.attach("mem0", "d")
    t.connect("d", "a")
    t.connect("b", "f")
    t.attach("cpu1", "f")
    t.connect("g", "c")
    t.connect("f", "g")
    t.attach("mem1", "e")
    t.connect("e", "g")
    return t


def _split() -> Topology:
    """Two islands: not connected, so closeness is Wasserman-Faust
    scaled and some pairs have no route."""
    t = Topology("split")
    for s in ("p", "q", "r", "x", "y"):
        t.add_switch(s)
    t.connect("q", "p")
    t.connect("r", "q")
    t.connect("y", "x")
    return t


def _attached(factory, *args):
    def make():
        t = factory(*args)
        attach_round_robin(t, 3, 2)
        return t
    return make


FABRICS = {
    "mesh-2x2": lambda: mesh(2, 2),
    "mesh-3x4": _attached(mesh, 3, 4),
    "torus-3x3": lambda: torus(3, 3),
    "torus-3x4": _attached(torus, 3, 4),
    "ring-4": lambda: ring(4),
    "ring-7": _attached(ring, 7),
    "star-3": lambda: star(3),
    "star-5": _attached(star, 5),
    "spidergon-4": lambda: spidergon(4),
    "spidergon-8": _attached(spidergon, 8),
    "hypercube-2": lambda: hypercube(2),
    "hypercube-4": _attached(hypercube, 4),
    "fat_tree-2": lambda: fat_tree(2),
    "fat_tree-4": _attached(fat_tree, 4),
    "fully_connected-3": lambda: fully_connected(3),
    "fully_connected-5": _attached(fully_connected, 5),
    "irregular": _interleaved,
    "split": _split,
}


def _build(make):
    """The fabric, and the networkx graph the same construction calls
    would have built: switches in declaration order, links in
    ``connect`` order."""
    links = []
    connect = Topology.connect

    def recording_connect(self, a, b):
        connect(self, a, b)
        links.append((a, b))

    with mock.patch.object(Topology, "connect", recording_connect):
        topo = make()
    graph = nx.Graph()
    graph.add_nodes_from(topo.switches)
    graph.add_edges_from(links)
    return topo, graph


@pytest.fixture(params=sorted(FABRICS), scope="module")
def fabric(request):
    return _build(FABRICS[request.param])


class TestAgainstNetworkx:
    def test_switch_path_for_every_ordered_pair(self, fabric):
        topo, graph = fabric
        for a in topo.switches:
            for b in topo.switches:
                try:
                    expected = nx.shortest_path(graph, a, b)
                except nx.NetworkXNoPath:
                    with pytest.raises(TopologyError, match="no path"):
                        topo.switch_path(a, b, "shortest")
                else:
                    assert topo.switch_path(a, b, "shortest") == expected, (a, b)

    def test_hop_matrix_values_and_order(self, fabric):
        topo, graph = fabric
        expected = dict(nx.all_pairs_shortest_path_length(graph))
        hops = topo.hop_matrix()
        assert hops == expected
        assert list(hops) == list(expected)
        assert all(list(hops[s]) == list(expected[s]) for s in hops)

    def test_closeness_is_float_identical(self, fabric):
        topo, graph = fabric
        expected = nx.closeness_centrality(graph)
        got = topo.closeness()
        assert list(got) == list(expected)
        assert all(got[s] == expected[s] for s in got), (got, expected)

    def test_edge_order(self, fabric):
        topo, graph = fabric
        assert topo.edges == list(graph.edges)

    def test_is_connected(self, fabric):
        topo, graph = fabric
        assert topo.is_connected() == nx.is_connected(graph)


def _interleaved_core_graph() -> CoreGraph:
    cores = [CoreSpec(f"c{i}", True) for i in range(3)]
    cores += [CoreSpec(f"m{i}", False) for i in range(3)]
    cg = CoreGraph("interleaved", cores)
    for src, dst, rate in [
        ("m2", "c1", 5.0), ("c2", "m0", 3.0), ("c0", "m1", 7.5),
        ("m2", "c0", 1.25), ("c2", "m0", 4.0), ("c1", "m2", 2.0),
        ("m0", "c1", 6.0), ("c0", "m0", 0.5), ("m1", "c1", 9.0),
    ]:
        cg.add_demand(src, dst, rate)
    return cg


def _replayed(make):
    """Build with ``make`` while recording every ``add_flow`` /
    ``add_demand``, then replay the calls into networkx DiGraphs the
    way the containers once did (nodes first, rates accumulated)."""
    flows, demands = [], []
    add_flow, add_demand = TaskGraph.add_flow, CoreGraph.add_demand

    def recording_flow(self, src, dst, rate):
        add_flow(self, src, dst, rate)
        flows.append((src, dst, rate))

    def recording_demand(self, src, dst, rate):
        add_demand(self, src, dst, rate)
        demands.append((src, dst, rate))

    with mock.patch.object(TaskGraph, "add_flow", recording_flow), \
            mock.patch.object(CoreGraph, "add_demand", recording_demand):
        built = make()
    core_graph = built if isinstance(built, CoreGraph) else built[2]
    task_graph = None if isinstance(built, CoreGraph) else built[0]

    def digraph(nodes, calls):
        g = nx.DiGraph()
        g.add_nodes_from(nodes)
        for src, dst, rate in calls:
            g.add_nodes_from((src, dst))
            if g.has_edge(src, dst):
                g[src][dst]["rate"] += rate
            else:
                g.add_edge(src, dst, rate=rate)
        return g

    return (
        task_graph,
        digraph((), flows),
        core_graph,
        digraph(core_graph.cores, demands),
    )


@pytest.mark.parametrize(
    "make", [demo_multimedia_soc, demo_telecom_soc, _interleaved_core_graph],
    ids=["multimedia", "telecom", "interleaved"],
)
class TestDemandOrder:
    def test_demands_in_digraph_edge_order(self, make):
        _, _, core_graph, reference = _replayed(make)
        expected = [(u, v, d["rate"]) for u, v, d in reference.edges(data=True)]
        assert core_graph.demands() == expected

    def test_initiator_demands_in_out_then_in_edge_order(self, make):
        _, _, core_graph, reference = _replayed(make)
        for ini in core_graph.initiators:
            expected = {}
            for _, dst, rate in reference.out_edges(ini, data="rate"):
                expected[dst] = expected.get(dst, 0.0) + rate
            for src, _, rate in reference.in_edges(ini, data="rate"):
                expected[src] = expected.get(src, 0.0) + rate
            got = core_graph.initiator_demands(ini)
            assert list(got.items()) == list(expected.items())

    def test_demand_between(self, make):
        _, _, core_graph, reference = _replayed(make)
        for a in core_graph.cores:
            for b in core_graph.cores:
                expected = 0.0
                if reference.has_edge(a, b):
                    expected += reference[a][b]["rate"]
                if reference.has_edge(b, a):
                    expected += reference[b][a]["rate"]
                assert core_graph.demand_between(a, b) == expected


@pytest.mark.parametrize("make", [demo_multimedia_soc, demo_telecom_soc],
                         ids=["multimedia", "telecom"])
def test_task_flows_in_digraph_edge_order(make):
    task_graph, reference, _, _ = _replayed(make)
    assert task_graph.tasks == list(reference.nodes)
    assert task_graph.flows() == [
        (u, v, d["rate"]) for u, v, d in reference.edges(data=True)
    ]


@pytest.mark.parametrize("make, policy", [
    (lambda: mesh(3, 3), "dor"),
    (lambda: ring(6), "shortest"),
], ids=["mesh-dor", "ring-shortest"])
def test_deadlock_report_matches_networkx_routes(make, policy):
    """The report over the walked routes equals the report over the
    routes networkx picks on the same graph."""
    topo, graph = _build(make)
    attach_round_robin(topo, 3, 3)
    report = check_deadlock_freedom(topo, policy)
    walked = Topology.switch_path

    def networkx_path(self, src, dst, policy="shortest"):
        if policy == "shortest":
            return nx.shortest_path(graph, src, dst)
        return walked(self, src, dst, policy)

    with mock.patch.object(Topology, "switch_path", networkx_path):
        reference = check_deadlock_freedom(topo, policy)
    assert report == reference
    assert report.is_deadlock_free == (policy == "dor")


def test_build_sweep_and_serve_imports_load_neither_networkx_nor_numpy():
    """numpy is loaded by a batch on first use, and networkx never:
    importing the library and running the deadlock analysis load
    neither."""
    code = "\n".join([
        "import sys",
        "import repro, repro.network, repro.flow, repro.flow.dse",
        "import repro.network.experiments, repro.serve.service, repro.sim.batch",
        "print(sorted(m for m in ('networkx', 'numpy') if m in sys.modules))",
        "from repro.network import check_deadlock_freedom",
        "from repro.network.topology import attach_round_robin, mesh",
        "topo = mesh(2, 2)",
        "attach_round_robin(topo, 2, 2)",
        "check_deadlock_freedom(topo)",
        "print(sorted(m for m in ('networkx', 'numpy') if m in sys.modules))",
        "from repro.network.experiments import TopologyNocBuilder",
        "from repro.sim.batch import BatchSimulator",
        "noc = TopologyNocBuilder(mesh, (2, 2), n_initiators=2, n_targets=2)()",
        "BatchSimulator(noc, replicas=2).run_lanes(50, lambda noc, k: {'k': k})",
        "print(sorted(m for m in ('networkx', 'numpy') if m in sys.modules))",
    ])
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    ).stdout.splitlines()
    assert out == ["[]", "[]", "['numpy']"]
