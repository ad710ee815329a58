"""Property-based tests on data structures: FIFOs, arbiters, routes."""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.arbiter import RoundRobinArbiter
from repro.core.buffers import BoundedFifo
from repro.core.routing import RouteSet
from repro.network.topology import attach_round_robin, mesh


class FifoMachine(RuleBasedStateMachine):
    """The bounded FIFO behaves exactly like a depth-capped list."""

    def __init__(self):
        super().__init__()
        self.depth = 4
        self.fifo = BoundedFifo(self.depth)
        self.model = []
        self.counter = 0

    @rule()
    @precondition(lambda self: len(self.model) < self.depth)
    def push(self):
        self.counter += 1
        self.fifo.push(self.counter)
        self.model.append(self.counter)

    @rule()
    @precondition(lambda self: self.model)
    def pop(self):
        assert self.fifo.pop() == self.model.pop(0)

    @rule()
    def peek(self):
        expected = self.model[0] if self.model else None
        assert self.fifo.peek() == expected

    @invariant()
    def sizes_agree(self):
        assert len(self.fifo) == len(self.model)
        assert self.fifo.is_full == (len(self.model) == self.depth)
        assert self.fifo.is_empty == (not self.model)


TestFifoMachine = FifoMachine.TestCase


class TestRoundRobinProps:
    @given(
        n=st.integers(min_value=2, max_value=8),
        rounds=st.integers(min_value=1, max_value=20),
    )
    def test_full_contention_is_perfectly_fair(self, n, rounds):
        arb = RoundRobinArbiter(n)
        counts = [0] * n
        for _ in range(rounds * n):
            counts[arb.grant([True] * n)] += 1
        assert counts == [rounds] * n

    @given(
        n=st.integers(min_value=2, max_value=8),
        pattern=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=60),
    )
    def test_grant_is_always_a_requester(self, n, pattern):
        arb = RoundRobinArbiter(n)
        for bits in pattern:
            reqs = [(bits >> i) & 1 == 1 for i in range(n)]
            g = arb.grant(reqs)
            if any(reqs):
                assert g is not None and reqs[g]
            else:
                assert g is None


class TestRouteProps:
    @given(
        rows=st.integers(min_value=1, max_value=4),
        cols=st.integers(min_value=1, max_value=4),
        n_cpus=st.integers(min_value=1, max_value=4),
        n_mems=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_mesh_routes_always_valid(self, rows, cols, n_cpus, n_mems):
        topo = mesh(rows, cols)
        cpus, mems = attach_round_robin(topo, n_cpus, n_mems)
        for c in cpus:
            for m in mems:
                route = RouteSet(topo).route(c, m)
                # Walk the route and confirm it lands on the target NI.
                current = topo.switch_of(c)
                for hop in route[:-1]:
                    current = topo.ports_of(current)[hop]
                    assert current in topo.switches
                final = topo.ports_of(current)[route[-1]]
                assert final == m
                # Route length bounded by fabric diameter + ejection.
                assert route.hops <= rows * cols

    @given(
        rows=st.integers(min_value=2, max_value=4),
        cols=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_dor_and_shortest_agree_on_hop_count(self, rows, cols):
        topo = mesh(rows, cols)
        cpus, mems = attach_round_robin(topo, 2, 2)
        for c in cpus:
            for m in mems:
                dor = RouteSet(topo, "dor").route(c, m)
                short = RouteSet(topo, "shortest").route(c, m)
                assert dor.hops == short.hops  # DOR is minimal on meshes
