"""Property: a pool that is kept, faulted, closed and reopened in any
order answers exactly like inline execution.

A ``RuleBasedStateMachine`` drives one ``WorkStealingDispatcher`` over
one store next to an inline ``jobs=1`` model on a store of its own.
Its rules are maps of fresh and repeated points and these faults, each
entering only through a point, a signal or a file the test owns:

* a map with one raising point;
* SIGKILL of an idle kept worker;
* a busy worker killed mid-point (a point that SIGKILLs its own
  process on its first attempt);
* a busy worker stalled (a point that SIGSTOPs its own process on its
  first attempt), which only the short ``LIVENESS`` can reclaim --
  once per schedule;
* a pill point that ``os._exit``s on every attempt;
* a flipped record byte, then a map of that point;
* a cut ``events.jsonl`` tail, then a map;
* leaving and re-entering the ``with`` block.

Every fault rule asserts that its fault landed: ``crash_count``,
``stalls``, ``poisoned`` or ``corrupt_records`` moves by exactly one,
or the cut record is the one record lost.  After every step: results
equal the model's, the executed points' ``point_end`` events hold
every computation exactly once (each pill as ``"poisoned"``), the
store holds exactly one record per point ever computed, every counter
matches the faults delivered, and there are never more children than
``WORKERS`` -- none once closed.
Hypothesis shrinks a failure to the shortest schedule of rules.
"""

import collections
import multiprocessing
import os
import signal
import tempfile
import time

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.flow.keying import point_keys
from repro.flow.pool import WorkStealingDispatcher
from repro.flow.runner import ExperimentRunner
from repro.store import ResultStore
from repro.telemetry.events import read_events, validate_events
from tests.harness import flip_final_payload_byte, point_outcomes

WORKERS = 2
RAISES = -1
#: Heartbeat silence that counts as a stall: short, so a stall rule
#: costs about a third of a second (a healthy map of five points here
#: takes under 20 ms).
HEARTBEAT, LIVENESS = 0.05, 0.3
#: Attempts per point: a killed or stalled first attempt is retried;
#: a pill fells ``POISON_THRESHOLD`` workers and is quarantined.
RETRIES, POISON_THRESHOLD = 2, 2
#: A backstop: were a stalled worker never reclaimed, the map ends
#: here as a timeout instead of hanging.
TIMEOUT = 2.0
SIGNALS = {"kill": signal.SIGKILL, "stop": signal.SIGSTOP}


def _point(p):
    """An int cubes (``RAISES`` raises).  ``("kill" | "stop", x,
    marker)`` signals its own process on its first attempt -- the
    marker file records that one happened -- and cubes ``x`` on the
    next; ``("pill", n, "")`` exits its process on every attempt."""
    if p == RAISES:
        raise ValueError("raises")
    if isinstance(p, tuple):
        fault, p, marker = p
        if fault == "pill":
            os._exit(23)
        if not os.path.exists(marker):
            open(marker, "w").close()
            os.kill(os.getpid(), SIGNALS[fault])
    return p ** 3


def _is_pill(p):
    return isinstance(p, tuple) and p[0] == "pill"


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
            on_failure="record", retries=RETRIES, backoff=0.01,
            timeout=TIMEOUT)
        self.pool = WorkStealingDispatcher(
            self.runner, workers=WORKERS, heartbeat=HEARTBEAT,
            liveness=LIVENESS, poison_threshold=POISON_THRESHOLD)
        self.open = False
        self.computed = set()
        self.faults = 0  # names each fault point's marker file
        #: What the counters and the point_end events must say.
        self.expected = dict.fromkeys(self.counters(), 0)
        self.journal = collections.Counter()

    def children(self):
        return [c for c in multiprocessing.active_children()
                if c.pid not in self.before and c.is_alive()]

    def counters(self):
        """The runner, dispatcher and store counters faults move."""
        runner, pool, store = self.runner, self.pool, self.runner.store
        return dict(
            crash_count=runner.crash_count, stall_count=runner.stall_count,
            retry_count=runner.retry_count, stalls=pool.stalls,
            poisoned=pool.poisoned, corrupt_records=store.corrupt_records)

    def fault_point(self, fault, x):
        self.faults += 1
        return (fault, x, os.path.join(self.tmp.name, f"marker-{self.faults}"))

    def run(self, points):
        """Map ``points`` on the pool, then inline (where a fault
        point's marker now exists, so it cubes at once); a pill is not
        run inline and must come back None.  Books the point_end
        events and retries the map owes."""
        got = self.pool.map(_point, points)
        model = iter(self.model.map(
            _point, [p for p in points if not _is_pill(p)]))
        assert got == [None if _is_pill(p) else next(model) for p in points]
        for p, key in zip(points, point_keys(_point, points)):
            if p == RAISES:
                self.journal[key, "error"] += 1
                self.expected["retry_count"] += RETRIES
            elif _is_pill(p):
                self.journal[key, "poisoned"] += 1
            elif p not in self.computed:
                self.journal[key, "ok"] += 1
                self.computed.add(p)

    def run_with_fault(self, points, at, fault, **moved):
        """``run`` with ``fault`` at ``at``; each counter in ``moved``
        must move by exactly that much, and nothing else may move."""
        before = self.counters()
        self.run(points[:at] + [fault] + points[at:])
        after = self.counters()
        for name in after:
            assert after[name] - before[name] == moved.get(name, 0), name
            self.expected[name] += moved.get(name, 0)

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
        self.run(points[:at] + [RAISES] + points[at:])
        assert len(self.runner.failures) == failures + 1

    @rule(which=st.integers(0, WORKERS - 1))
    def kill_idle_worker(self, which):
        kept = self.children()
        if kept:
            victim = kept[which % len(kept)]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(5)
            assert not victim.is_alive()

    @rule(points=st.lists(st.integers(0, 30), max_size=3, unique=True),
          at=st.integers(0, 3), x=st.integers(31, 40))
    def kill_busy_worker(self, points, at, x):
        self.run_with_fault(points, at, self.fault_point("kill", x),
                            crash_count=1, retry_count=1)

    # One stall per schedule: each costs LIVENESS of wall clock.
    @precondition(lambda self: self.expected["stalls"] == 0)
    @rule(points=st.lists(st.integers(0, 30), max_size=3, unique=True),
          at=st.integers(0, 3), x=st.integers(31, 40))
    def stall_busy_worker(self, points, at, x):
        self.run_with_fault(points, at, self.fault_point("stop", x),
                            stall_count=1, stalls=1, retry_count=1)

    @rule(points=st.lists(st.integers(0, 30), max_size=3, unique=True),
          at=st.integers(0, 3))
    def map_with_a_pill(self, points, at):
        self.faults += 1
        self.run_with_fault(points, at, ("pill", self.faults, ""),
                            poisoned=1, crash_count=POISON_THRESHOLD - 1,
                            retry_count=POISON_THRESHOLD - 1)

    @precondition(lambda self: self.computed)
    @rule(data=st.data())
    def flip_a_record_byte_then_map_it(self, data):
        point = data.draw(st.sampled_from(sorted(self.computed, key=repr)))
        [key] = point_keys(_point, [point])
        flip_final_payload_byte(self.runner.store, key)
        self.run_with_fault([], 0, point, corrupt_records=1)
        self.journal[key, "ok"] += 1  # recomputed, logged again

    @precondition(lambda self: read_events(self.events_path()))
    @rule(points=st.lists(st.integers(0, 30), max_size=4, unique=True),
          cut=st.integers(2, 30))
    def cut_the_event_log_tail_then_map(self, points, cut):
        """``cut`` bytes off the file end into the last record (every
        record is longer): that record alone is lost, and the next
        map's records all read back after it."""
        path = self.events_path()
        before = read_events(path)
        os.truncate(path, os.path.getsize(path) - cut)
        assert read_events(path) == before[:-1]
        self.run(points)
        after = read_events(path)
        validate_events(after)
        assert after[:len(before) - 1] == before[:-1]
        run = after[len(before) - 1:]
        assert (run[0]["event"], run[-1]["event"]) == ("run_start", "run_end")

    def events_path(self):
        return os.path.join(self.runner.store.root, "events.jsonl")

    @invariant()
    def pool_is_bounded_and_store_and_journal_are_exact(self):
        live = self.children()
        assert len(live) <= WORKERS
        if not self.open:
            assert live == []
        assert self.counters() == self.expected
        store = self.runner.store
        assert store.puts - self.expected["corrupt_records"] == len(self.computed)
        assert self.model.store.puts == len(self.computed)
        assert sorted(store.keys()) == sorted(
            point_keys(_point, sorted(self.computed, key=repr)))
        journal = point_outcomes(self.runner)
        assert collections.Counter(
            (r["key"], r.get("kind", r["status"])) for r in journal
        ) == self.journal

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
# The flip rule's recompute warns once per runner, by design.
TestKeptPool = pytest.mark.filterwarnings(
    "ignore:an experiment cache entry")(
    pytest.mark.timeout_guard(240.0)(KeptPool.TestCase))
