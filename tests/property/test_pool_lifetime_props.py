"""Property: a pool that is kept, killed into, closed and reopened in
any order answers exactly like inline execution.

A ``RuleBasedStateMachine`` drives one ``WorkStealingDispatcher`` over
one store -- maps of fresh and repeated points, a map with one raising
point, SIGKILL of an idle kept worker, leaving and re-entering the
``with`` block -- next to an inline ``jobs=1`` model on a store of its
own.  After every step: same results, exactly one record per point
ever computed, never more children than ``workers``, none once closed.
"""

import multiprocessing
import os
import signal
import tempfile
import time

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.flow.keying import point_keys
from repro.flow.runner import ExperimentRunner
from repro.serve import WorkStealingDispatcher
from repro.store import ResultStore

WORKERS = 2
POISON = -1


def _cube_unless_poison(x):
    if x == POISON:
        raise ValueError("poison")
    return x ** 3


class KeptPool(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.before = {c.pid for c in multiprocessing.active_children()}
        self.tmp = tempfile.TemporaryDirectory()
        self.model = ExperimentRunner(
            store=ResultStore(os.path.join(self.tmp.name, "model")),
            on_failure="record")
        self.runner = ExperimentRunner(
            store=ResultStore(os.path.join(self.tmp.name, "pool")),
            on_failure="record")
        self.pool = WorkStealingDispatcher(self.runner, workers=WORKERS)
        self.open = False
        self.computed = set()

    def children(self):
        return [c for c in multiprocessing.active_children()
                if c.pid not in self.before and c.is_alive()]

    def run(self, points):
        assert (self.pool.map(_cube_unless_poison, points)
                == self.model.map(_cube_unless_poison, points))
        self.computed.update(p for p in points if p != POISON)

    @rule()
    def toggle_block(self):
        if self.open:
            self.pool.__exit__(None, None, None)
        else:
            self.pool.__enter__()
        self.open = not self.open

    @rule(points=st.lists(st.integers(0, 30), max_size=6, unique=True))
    def map_points(self, points):
        self.run(points)

    @rule(points=st.lists(st.integers(0, 30), max_size=4, unique=True),
          at=st.integers(0, 4))
    def map_with_one_raising_point(self, points, at):
        failures = len(self.runner.failures)
        self.run(points[:at] + [POISON] + points[at:])
        assert len(self.runner.failures) == failures + 1

    @rule(which=st.integers(0, WORKERS - 1))
    def kill_idle_worker(self, which):
        kept = self.children()
        if kept:
            victim = kept[which % len(kept)]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(5)
            assert not victim.is_alive()

    @invariant()
    def pool_is_bounded_and_store_is_exact(self):
        live = self.children()
        assert len(live) <= WORKERS
        if not self.open:
            assert live == []
        store = self.runner.store
        assert store.puts == len(self.computed) == self.model.store.puts
        assert sorted(store.keys()) == sorted(
            point_keys(_cube_unless_poison, sorted(self.computed)))
        # A kept worker lost between calls is nobody's failed attempt.
        assert self.runner.crash_count == self.runner.retry_count == 0

    def teardown(self):
        if self.open:
            self.pool.__exit__(None, None, None)
        deadline = time.monotonic() + 5
        while self.children() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert self.children() == []
        self.tmp.cleanup()


KeptPool.TestCase.settings = settings(
    max_examples=10, stateful_step_count=12, deadline=None)
TestKeptPool = pytest.mark.timeout_guard(240.0)(KeptPool.TestCase)
