"""Who owns the worker processes, and for how long.

A ``map`` outside any ``with`` forks and reaps its own workers; inside
``with runner:`` / ``with dispatcher:`` / a :class:`QueryEngine` they
outlive the call.  Everything per point -- results, records, attempts,
what a fault costs -- must be the same either way.
"""

import asyncio
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.chaos import ChaosMonkey, ChaosPlan, chaos_point
from repro.chaos.harness import journal_counts, results_digest
from repro.flow.dse import explore_design_space
from repro.flow.pool import DEFAULT_HEARTBEAT
from repro.flow.runner import ExperimentRunner, read_journal
from repro.serve import QueryEngine, QuerySpec, WorkStealingDispatcher
from repro.serve.http import QueryServer
from repro.serve.service import core_graph_from_name, topology_from_name
from repro.store import ResultStore
from repro.telemetry.events import EventCollector, install_sink, remove_sink
from repro.telemetry.registry import MetricsRegistry

pytestmark = pytest.mark.timeout_guard(120.0)

SLICE = dict(
    topologies=("mesh-2x2", "ring-4"),
    flit_widths=(16, 32),
    buffer_depths=(4,),
    anneal_iterations=50,
)
N_POINTS = 4


def _pid(x):
    return os.getpid()


def _square(x):
    return x * x


def _kill_self_once(marker):
    """SIGKILLs its worker on the first attempt only."""
    if os.path.exists(marker):
        return "survived"
    open(marker, "w").close()
    os.kill(os.getpid(), signal.SIGKILL)


def _hang_once(marker):
    if os.path.exists(marker):
        return "on time"
    open(marker, "w").close()
    time.sleep(60)


def _new_children(before):
    """Live multiprocessing children that were not there at ``before``."""
    return sorted(
        c.pid for c in multiprocessing.active_children()
        if c.pid not in before and c.is_alive()
    )


def _snapshot():
    return {c.pid for c in multiprocessing.active_children()}


def _gone(pid):
    """No such process -- or only its unreaped corpse."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def _wait_gone(pids, seconds):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline and not all(map(_gone, pids)):
        time.sleep(0.02)
    return [pid for pid in pids if not _gone(pid)]


def _until(condition, seconds=2.0):
    """Poll: a killed process is a zombie to ``/proc`` a moment before
    ``waitpid`` will reap it (its other threads are still exiting)."""
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


def _attempts(records):
    return [r["attempts"] for r in records
            if r["event"] == "point_end" and not r["cached"]]


class TestRunnerBlock:
    def test_with_block_forks_once_for_every_map(self):
        before = _snapshot()
        with ExperimentRunner(jobs=2) as runner:
            seen = [set(runner.map(_pid, range(4))) for _ in range(3)]
            assert seen[0] == seen[1] == seen[2] and len(seen[0]) == 2
            assert runner.dispatcher.spawned == 2
            assert set(_new_children(before)) == seen[0]
        assert _new_children(before) == []

    def test_outside_with_every_map_forks_and_reaps_its_own(self):
        """The parent commit's behaviour, pinned: it is what keeps a
        runner nobody closes (``SweepFarm``) from leaking a process."""
        before = _snapshot()
        runner = ExperimentRunner(jobs=2)
        first = set(runner.map(_pid, range(4)))
        assert _new_children(before) == []
        second = set(runner.map(_pid, range(4)))
        assert _new_children(before) == []
        assert len(first | second) == 4

    def test_blocks_nest_and_the_outermost_reaps(self):
        before = _snapshot()
        runner = ExperimentRunner(jobs=2)
        with runner:
            with runner:
                pids = set(runner.map(_pid, range(4)))
            assert set(_new_children(before)) == pids
            assert set(runner.map(_pid, range(4))) == pids
        assert _new_children(before) == []

    def test_inline_runner_has_nothing_to_hold(self):
        with ExperimentRunner() as runner:
            assert runner.map(_square, [1, 2, 3]) == [1, 4, 9]
            assert runner.dispatcher is None

    def test_a_narrow_map_leaves_the_other_workers_kept(self):
        with WorkStealingDispatcher(ExperimentRunner(), workers=3) as disp:
            wide = set(disp.map(_pid, range(6)))
            assert disp.map(_pid, [0])[0] in wide
            assert disp.live_workers == 3 and disp.spawned == 3
            assert set(disp.map(_pid, range(6))) == wide

    def test_dropped_while_open_reaps_its_workers(self):
        before = _snapshot()
        disp = WorkStealingDispatcher(ExperimentRunner(), workers=2).__enter__()
        disp.map(_pid, range(4))
        assert len(_new_children(before)) == 2
        del disp
        assert _new_children(before) == []

    def test_report_counts_spawns(self):
        with WorkStealingDispatcher(ExperimentRunner(), workers=2) as disp:
            disp.map(_square, [1, 2])
            disp.map(_square, [3, 4])
            assert "spawned=2" in disp.render_report()


class TestInheritedState:
    def test_kept_worker_holds_no_descriptor_on_the_event_stream(self, tmp_path):
        """Workers are forked while the session's EventWriter is open."""
        events = tmp_path / "events.jsonl"
        with ExperimentRunner(jobs=2, events_path=str(events)) as runner:
            pids = set(runner.map(_pid, range(4)))
            assert events.stat().st_size > 0
            for pid in pids:
                held = [os.readlink(f"/proc/{pid}/fd/{fd}")
                        for fd in os.listdir(f"/proc/{pid}/fd")]
                assert not [path for path in held if "events.jsonl" in path]
            assert set(runner.map(_pid, range(4))) == pids

    def test_worker_forked_under_a_loop_keeps_its_own_sigterm(self):
        """A server routes SIGTERM through its loop's wakeup descriptor,
        which a fork shares: a signal sent to a worker must kill the
        worker, not shut the server down."""
        hits = []

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, hits.append, "server")
            try:
                with WorkStealingDispatcher(ExperimentRunner(), workers=2) as disp:
                    pids = await loop.run_in_executor(
                        None, disp.map, _pid, range(4))
                    os.kill(pids[0], signal.SIGTERM)
                    await asyncio.sleep(0.3)
                    assert _until(lambda: disp.live_workers == 1)
                    again = await loop.run_in_executor(
                        None, disp.map, _pid, range(4))
                    assert pids[0] not in again and disp.spawned == 3
            finally:
                loop.remove_signal_handler(signal.SIGTERM)

        asyncio.run(scenario())
        assert hits == []


class TestEngine:
    def _engine(self, tmp_path, name="store"):
        metrics = MetricsRegistry()
        store = ResultStore(tmp_path / name, metrics=metrics)
        return QueryEngine(store, workers=2, metrics=metrics), metrics

    @staticmethod
    def _serial(spec):
        return explore_design_space(
            core_graph_from_name(spec.core_graph),
            [topology_from_name(t) for t in spec.topologies],
            flit_widths=spec.flit_widths, buffer_depths=spec.buffer_depths,
            seed=spec.seed, anneal_iterations=spec.anneal_iterations,
        )

    def test_sequential_misses_after_warm_up_spawn_nothing(self, tmp_path):
        before = _snapshot()
        k = 4
        with self._engine(tmp_path)[0] as engine, \
                self._engine(tmp_path, "per-call")[0] as per_call:
            metrics = engine.metrics
            engine.query(QuerySpec(seed=99, **SLICE))
            spawns = metrics.counter("serve.worker_spawns")
            assert spawns.value == 2
            workers = _new_children(before)
            for seed in range(k):
                spec = QuerySpec(seed=seed, **SLICE)
                result = engine.query(spec)
                assert result.served_from == "farm"
                assert result.store_misses == N_POINTS
                assert result.points == self._serial(spec)
                assert result.points == per_call.query(spec).points
                per_call.close()  # the next miss forks again
            assert spawns.value == 2
            assert _new_children(before) == workers and len(workers) == 2
            assert engine.farm_workers == 2
            assert engine.store.puts == (k + 1) * N_POINTS
            assert metrics.counter("serve.points_computed").value == (
                (k + 1) * N_POINTS)
            assert per_call.metrics.counter("serve.worker_spawns").value == 2 * k
        assert _new_children(before) == []

    def test_free_list_hands_a_farm_to_one_query_at_a_time(self, tmp_path):
        """The engine's one piece of shared state, stressed without a
        fork: more threads than cores, switching often, each checking
        out and handing back a farm (never mapped on, so no process)."""
        engine, _ = self._engine(tmp_path)
        runner = engine.make_runner(jobs=2)
        n_threads, in_use, errors = 6, set(), []

        def churn():
            try:
                for _ in range(300):
                    with engine._farm(runner) as farm:
                        assert id(farm) not in in_use
                        in_use.add(id(farm))
                        time.sleep(0)
                        in_use.remove(id(farm))
            except Exception as exc:  # noqa: BLE001 -- reported below
                errors.append(exc)

        threads = [threading.Thread(target=churn) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and not in_use
        assert 1 <= len(engine._farms) <= n_threads
        assert len({id(farm) for farm in engine._farms}) == len(engine._farms)
        assert engine.farm_workers == 0

    def test_concurrent_misses_keep_their_own_workers(self, tmp_path):
        before = _snapshot()
        metrics = MetricsRegistry()
        # retries=1: a fork from a threaded process can hand a worker a
        # lock some other thread held (functools.cached_property's, in
        # 3.11); it shows as one stall, and must not fail the test.
        engine = QueryEngine(
            ResultStore(tmp_path / "store", metrics=metrics), workers=2,
            metrics=metrics, retries=1)
        n_threads, rounds = 2, 3
        results, errors = {}, []

        def ask(seed):
            try:
                for round_ in range(rounds):
                    results[seed, round_] = engine.query(
                        QuerySpec(seed=seed * 10 + round_, **SLICE))
                    assert len(_new_children(before)) <= n_threads * engine.workers
            except Exception as exc:  # noqa: BLE001 -- reported below
                errors.append(exc)

        threads = [threading.Thread(target=ask, args=(seed,))
                   for seed in range(1, n_threads + 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(90)
            assert not thread.is_alive()
        assert errors == []
        assert len(results) == n_threads * rounds
        assert all(r.served_from == "farm" and len(r.points) == N_POINTS
                   for r in results.values())
        assert 2 <= engine.farm_workers <= n_threads * engine.workers
        assert engine.farm_workers == len(_new_children(before))
        assert engine.store.puts == n_threads * rounds * N_POINTS

        engine.close()
        assert engine.farm_workers == 0 and _new_children(before) == []
        spawned = metrics.counter("serve.worker_spawns").value
        again = engine.query(QuerySpec(seed=77, **SLICE))
        assert again.served_from == "farm"
        assert metrics.counter("serve.worker_spawns").value == spawned + 2
        engine.close()
        assert _new_children(before) == []

    def test_inline_engine_has_no_farm(self, tmp_path):
        engine = QueryEngine(ResultStore(tmp_path / "store"), workers=1)
        assert engine.query(QuerySpec(**SLICE)).served_from == "farm"
        assert engine.farm_workers == 0
        engine.close()

    def test_healthz_counts_kept_workers(self, tmp_path):
        engine, _ = self._engine(tmp_path)
        server = QueryServer(engine, port=0)
        assert server._healthz()["farm_workers"] == 0
        engine.query(QuerySpec(**SLICE))
        assert server._healthz()["farm_workers"] == 2
        engine.close()
        assert server._healthz()["farm_workers"] == 0


class _StopFirstDispatch:
    """Minimal chaos hook: SIGSTOP the first worker dispatched to."""

    def __init__(self):
        self.stopped = None

    def attach_session(self, session):
        pass

    def tick(self):
        pass

    def on_dispatch(self, worker, i, attempt, ordinal):
        if self.stopped is None:
            self.stopped = worker.proc.pid
            os.kill(self.stopped, signal.SIGSTOP)


class TestSupervisionInsideAKeptPool:
    """A fault costs the point in flight and its worker -- and the next
    ``map`` on the same dispatcher finds a full, clean pool."""

    def _next_map_is_clean(self, disp, spawned):
        """``spawned`` in total: the lost worker's slot is refilled by
        an in-call restart if the faulty call lasted that long, else by
        the next call's draw -- once either way."""
        collector = install_sink(EventCollector())
        try:
            pids = disp.map(_pid, range(2 * disp.workers), label="after")
        finally:
            remove_sink(collector)
        assert len(set(pids)) == disp.workers == disp.live_workers
        assert _attempts(collector.records) == [1] * len(pids)
        assert disp.spawned == spawned and disp.worker_restarts <= 1

    def test_crash_costs_one_point_and_one_respawn(self, tmp_path):
        runner = ExperimentRunner(retries=1, backoff=0.01)
        with WorkStealingDispatcher(runner, workers=2) as disp:
            first = set(disp.map(_pid, range(4)))
            open(tmp_path / "ok", "w").close()
            out = disp.map(
                _kill_self_once, [str(tmp_path / "pill"), str(tmp_path / "ok")])
            assert out == ["survived", "survived"]
            assert runner.crash_count == 1 and not runner.failures
            self._next_map_is_clean(disp, spawned=3)
            assert len(first & set(disp.map(_pid, range(4)))) == 1

    def test_stalled_worker(self):
        runner = ExperimentRunner(retries=1, backoff=0.01)
        hook = _StopFirstDispatch()
        with WorkStealingDispatcher(
            runner, workers=2, heartbeat=0.05, liveness=0.5
        ) as disp:
            disp.map(_pid, range(4))
            disp.chaos = hook
            assert disp.map(_square, [5, 6, 7]) == [25, 36, 49]
            disp.chaos = None
            assert disp.stalls == 1 and runner.stall_count == 1
            assert not runner.failures
            assert _wait_gone([hook.stopped], 2.0) == []
            self._next_map_is_clean(disp, spawned=3)

    def test_per_point_timeout(self, tmp_path):
        runner = ExperimentRunner(retries=1, backoff=0.01, timeout=0.5)
        with WorkStealingDispatcher(runner, workers=2) as disp:
            disp.map(_pid, range(4))
            open(tmp_path / "ok", "w").close()
            out = disp.map(
                _hang_once, [str(tmp_path / "slow"), str(tmp_path / "ok")])
            assert out == ["on time", "on time"]
            assert runner.timeout_count == 1 and not runner.failures
            self._next_map_is_clean(disp, spawned=3)

    def test_kept_worker_killed_while_idle_is_replaced_for_free(self, tmp_path):
        runner = ExperimentRunner(store=ResultStore(tmp_path / "store"))
        with WorkStealingDispatcher(runner, workers=2, restart_budget=0) as disp:
            first = disp.map(_pid, [0, 1])
            os.kill(first[0], signal.SIGKILL)
            assert _wait_gone([first[0]], 2.0) == []
            assert _until(lambda: disp.live_workers == 1)
            second = disp.map(_pid, [2, 3, 4, 5])
            assert first[0] not in second and first[1] in second
            assert len(set(second)) == 2
            journal = read_journal(runner.journal_path)
            assert [(r["status"], r["attempts"]) for r in journal] == [("ok", 1)] * 6
            assert not runner.failures and runner.retry_count == 0
            assert runner.crash_count == 0
            # Not a restart (restart_budget=0 would have refused one).
            assert disp.worker_restarts == 0 and disp.spawned == 3

    @pytest.mark.timeout_guard(240.0)
    def test_seeded_chaos_plan_twice_over_one_open_dispatcher(self, tmp_path):
        """``make chaos-smoke``'s plan, its three invariants, two rounds
        on the same kept pool: the second round starts from whatever
        the first round's kills and stalls left behind."""
        before = _snapshot()
        workers, points = 3, 12
        sweep = [(f"pt-{k:03d}", 200 + k, 0.05) for k in range(points)]
        clean = results_digest([chaos_point(p) for p in sweep])
        reports = []
        with WorkStealingDispatcher(
            ExperimentRunner(), workers=workers, heartbeat=0.1, liveness=2.0
        ) as disp:
            for round_ in range(2):
                monkey = ChaosMonkey(ChaosPlan(1307, horizon=10))
                store = ResultStore(tmp_path / f"store-{round_}")
                store.chaos = monkey
                disp.runner = ExperimentRunner(
                    store=store, retries=4, backoff=0.05, timeout=60.0)
                disp.chaos, disp.dispatched = monkey, 0
                try:
                    out = disp.map(chaos_point, sweep, label="chaos")
                finally:
                    monkey.release()
                    disp.chaos = None
                by_key = journal_counts(disp.runner.journal_path)
                terminal = [
                    [r["status"] for r in recs if r["status"] in ("ok", "failed")]
                    for recs in by_key.values()
                ]
                reports.append({
                    "digest": results_digest(out),
                    "faults": [(kind, at) for kind, at, _ in monkey.log
                               if kind in ("kill", "stall", "slow")],
                    "terminal": sorted(terminal),
                    "failures": list(disp.runner.failures),
                })
                assert len(_new_children(before)) <= workers
                assert disp.live_workers <= workers
        assert reports[0] == reports[1]
        assert reports[0]["digest"] == clean
        assert reports[0]["terminal"] == [["ok"]] * points
        assert reports[0]["failures"] == []
        assert {kind for kind, _ in reports[0]["faults"]} >= {"kill", "stall"}
        assert _new_children(before) == []


def _serve(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.getcwd(), "src"),
                    env.get("PYTHONPATH", "")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store",
         str(tmp_path / "store"), "--port", "0", "--serve-workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    found = re.search(r"serving on (http://[\d.]+:\d+)", proc.stdout.readline())
    assert found, "server did not announce its port"
    return proc, found.group(1)


def _miss(base, seed):
    body = dict(SLICE, seed=seed, wait=True)
    body = {k: list(v) if isinstance(v, tuple) else v for k, v in body.items()}
    req = urllib.request.Request(base + "/query", data=json.dumps(body).encode())
    with urllib.request.urlopen(req, timeout=60) as reply:
        return json.loads(reply.read())


def _children_of(pid):
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == str(pid) and fields[0] != "Z":
            found.append(int(entry))
    return sorted(found)


class TestServerShutdown:
    def test_sigterm_reaps_the_farm_and_exits_zero(self, tmp_path):
        proc, base = _serve(tmp_path)
        try:
            assert _miss(base, 1)["served_from"] == "farm"
            workers = _children_of(proc.pid)
            assert _miss(base, 2)["served_from"] == "farm"
            assert _children_of(proc.pid) == workers and len(workers) == 2
            with urllib.request.urlopen(base + "/healthz", timeout=10) as reply:
                assert json.loads(reply.read())["farm_workers"] == 2
            with urllib.request.urlopen(base + "/metrics", timeout=10) as reply:
                assert "repro_serve_worker_spawns 2" in reply.read().decode()
            proc.terminate()
            assert proc.wait(10) == 0
            assert _wait_gone(workers, 0.0) == []
            assert "shutting down" in proc.stdout.read()
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()

    def test_sigkill_leaves_the_orphan_check_to_clear_the_farm(self, tmp_path):
        proc, base = _serve(tmp_path)
        try:
            assert _miss(base, 1)["served_from"] == "farm"
            workers = _children_of(proc.pid)
            assert len(workers) == 2
            proc.kill()
            proc.wait(10)
            # Two heartbeats, plus grace for a loaded host.
            assert _wait_gone(workers, 2 * DEFAULT_HEARTBEAT + 1.0) == []
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
