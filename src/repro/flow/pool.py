"""The process pool: supervised long-lived workers with work stealing.

This is *the* pool.  :meth:`ExperimentRunner.map` with ``jobs > 1``
runs on it (``jobs=N`` is ``workers=N`` at the supervision defaults
below), and :class:`repro.serve.WorkStealingDispatcher` -- the farm
tier of the DSE service (docs/SERVICE.md) -- is this class re-exported:

* ``workers`` **long-lived processes**, each fed over its own duplex
  pipe, amortize fork, interpreter start-up and cold caches across many
  points.  *How* long is the owner's decision: the dispatcher is a
  context manager that owns its idle workers, and they live until the
  outermost ``with`` block is left.  ``with ExperimentRunner(jobs=N):``
  holds one dispatcher for all the ``map`` calls of a CLI run;
  :class:`repro.serve.QueryEngine` keeps a free list of open
  dispatchers until ``engine.close()``; a ``map`` outside any block is
  a block of one call and spawns and reaps its own workers.  There is
  no module-level pool and no idle timer.
  What a worker may remember is module-level state -- from fork time
  and from the points it has run, exactly as inline execution does.
  None of it can reach a result: ``fn`` and the points cross the pipe
  pickled with every row;
* **the worker that computes a point publishes it.**  Keys are computed
  in the parent and cross the pipe with the row, beside the store's
  root.  A worker pickles a result once, appends those bytes as the
  record under the key it was given -- and no other key -- to its own
  segment with the store's file half
  (:func:`repro.store.cas.write_record`), and replies with the same
  bytes, the record's header and its location.  The parent indexes
  and accounts it (:meth:`repro.store.ResultStore.account`: the index
  entry, ``puts``, ``conflicts``, metrics) without
  reading it back, so workers append in parallel and a miss returns
  exactly what a later hit reads;
* the unit of work is a **row**: a list of points handed over together
  (:meth:`WorkStealingDispatcher.map_rows`; :meth:`map` is the
  one-point-row case).  A row's pending points cross the pipe in *one*
  pickle and run in order in one worker, which answers one reply per
  point -- so an object the row's points share in the caller (the
  mapped fabric of a design-space sweep) is one object in the worker
  too, and whatever it computes on first use is computed once per row.
  Keys, store records, events and failures stay per point;
* rows are **sharded** round-robin into one deque per worker, so a
  healthy sweep keeps cache-friendly locality and a deterministic
  assignment;
* a worker that drains its shard **steals from the richest shard's
  tail** -- the classic Cilk/TBB discipline: the thief takes the (whole)
  row its victim would reach *last*, so stragglers shed load instead of
  gating the sweep.  Every steal is counted and emitted as a ``steal``
  event on the ``repro.telemetry.events`` plane;
* everything else around the scheduling -- store probing and
  accounting, streamed event and manifest updates, bounded retries
  with seeded-jitter exponential backoff, per-point wall-clock timeouts (the worker is SIGKILLed and
  respawned; only the point it held is re-attempted), crash isolation,
  the deferred first-failure re-raise -- is
  :class:`~repro.flow.session.MapSession`'s bookkeeping; this module only
  schedules.

What a fault inside a row costs is **the point in flight, never the
row**.  The parent knows which point that is because replies arrive in
row order, and both supervision clocks (``timeout``, ``liveness``)
restart at every reply, so neither is multiplied by the row's length.
A worker that dies, stalls or times out is charged the one point it was
on; the row's unanswered rest goes back to the head of its shard as one
row, attempts unchanged, for whichever worker is free first.  A point
that raises fails alone and the worker carries on with the row.  A
re-attempt re-enters as a one-point row.  The limit: a row runs on one
worker, so a batch of one row has no parallelism.

Tasks cross the pipe pickled, so ``fn``, every point and every result
must pickle.  An unpicklable ``fn`` (a lambda, a closure) is refused
with a :class:`ValueError` before any worker is spawned; an unpicklable
point is charged to that point alone as an ``"error"`` failure and its
siblings finish (a row that does not pickle is split into one-point
rows to find it).  A result that does not pickle, or whose record
cannot be written, is an ``"error"`` of its point too -- the same
charge the inline scheduler makes.

Supervision (docs/RESILIENCE.md, "Supervision & fault testing"): on
top of the scheduling, the dispatcher is its workers' supervisor.

* **Heartbeats with a liveness deadline.**  Each worker runs a
  background thread that sends ``("hb",)`` ticks over its duplex pipe
  while a point is executing or publishing.  A worker silent for longer
  than ``liveness`` seconds is *wedged, not dead* -- a SIGSTOP, a
  pathological native call -- and would otherwise be invisible until
  the per-point ``timeout`` (or forever, with no timeout configured).  The
  supervisor kills it, emits a ``worker_stall`` event, charges the
  attempt as kind ``"stall"`` and re-attempts only the point it held.
* **Restart budgets with seeded-jitter backoff.**  A killed worker's
  slot is respawned after an exponential, deterministically jittered
  delay (:meth:`MapSession.backoff_delay` with ``kind="respawn"``), and
  at most ``restart_budget`` respawns are spent per :meth:`map` call --
  a crash-looping farm degrades to fewer workers and finally to
  explicit failures rather than fork-bombing the host.  A *kept* worker
  that died between two calls did nothing wrong in either: it is found
  by ``is_alive()`` when the next call draws its workers and replaced
  for free (counted in ``spawned`` only).
* **Orphan check.**  Every worker, busy or idle, exits within one
  ``heartbeat`` of its supervisor's death (``os.getppid()`` in the beat
  thread): the backstop for a SIGKILLed owner that never reached its
  ``close()``.
* **Poison-point quarantine.**  A point whose attempts kill
  ``poison_threshold`` *consecutive* workers (crash / stall / timeout,
  with no clean result in between) is quarantined: recorded as a
  :class:`~repro.flow.session.PointFailure` of kind ``"poisoned"`` (a
  repro bundle -- the exact fn/point to re-run in isolation), emitted
  as a ``poisoned`` event, and skipped instead of burning the rest of
  the farm's restart budget.

Digest discipline: a pooled sweep must produce results bit-identical
to an inline ``jobs=1`` run, whatever killed, stopped or poisoned its
workers; ``tests/property/test_pool_lifetime_props.py`` drives those
faults through points, signals and files the test owns.  This module
has no injection seam.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from collections import deque
from multiprocessing.connection import wait as _connection_wait
from multiprocessing.reduction import ForkingPickler
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.flow.session import MapSession
from repro.store import cas
# At module level, not per map: a server's first farmed query would
# otherwise compile it mid-request, raising the supervisor's peak RSS.
from repro.telemetry import events as _events

if TYPE_CHECKING:  # runner.py imports this module; only the name is needed here
    from repro.flow.runner import ExperimentRunner

#: Default seconds between worker heartbeat ticks.
DEFAULT_HEARTBEAT = 0.25
#: Default seconds of heartbeat silence before a busy worker is
#: declared stalled and killed.  ``None`` disables stall detection.
DEFAULT_LIVENESS = 10.0
#: Default consecutive worker kills before a point is quarantined.
DEFAULT_POISON_THRESHOLD = 3


def _worker_main(conn, heartbeat: float, supervisor_pid: int) -> None:
    """Long-lived worker loop: run rows of points until told to stop.

    Messages in: ``("run", fn, indices, points, keys, root)`` -- one
    row, unpickled as one object so what its points share stays shared;
    ``keys`` are the points' store keys, computed in the supervisor, and
    ``root`` is the store's directory (None when the map has no store)
    -- or ``("stop",)``.  Messages out, one per point, in row order:
    ``("ok", i, seconds, payload, published, events)`` on success,
    ``("error", i, seconds, exc, summary, traceback_text, events)`` on
    an exception (with ``exc`` downgraded to None when it does not
    pickle); the row continues either way.

    A point's result is pickled **once**, here: ``payload`` is those
    bytes, and with a store they are also the record this worker
    appends under the point's key (:func:`repro.store.cas.write_record`)
    before replying, so the supervisor unpickles exactly what a later
    hit will read.  ``published`` is the write's ``(header, outcome,
    location)`` for the supervisor to index and account (None without a
    store).  A result that does not pickle, or a record that cannot be
    written, is an ``"error"`` of its point.  ``seconds`` is the time of
    ``fn`` alone.  ``events`` is the list of structured telemetry records
    (``repro.telemetry.events``) the point emitted -- a campaign's
    lane batches -- which the parent merges into its own
    ``events.jsonl``.  If the process dies before reporting (segfault,
    SIGKILL) the parent sees EOF and classifies the point as a crash;
    a record it wrote first stays, and the re-attempt finds it
    identical.

    While a point is executing or publishing, a daemon thread
    additionally sends ``("hb",)`` every ``heartbeat`` seconds -- the
    liveness signal the parent's supervisor watches, so a write that
    hangs is a stall like any other.  A stopped or wedged process stops
    beating (SIGSTOP freezes every thread), which is exactly what makes
    the stall detectable.  The same thread exits the process once the
    supervisor is gone (SIGKILLed sweep): forked siblings hold copies of
    this pipe's far end, so EOF alone would never arrive.
    """
    # What fork handed over from the supervisor and a worker must not
    # keep for a life that outlasts the call: its open event files, and
    # -- when it runs an event loop (``python -m repro serve``) -- a
    # SIGTERM routed through a wakeup descriptor this process shares
    # with that loop, where ``terminate()`` here would stop the server.
    _events.drop_inherited_sinks()
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    send_lock = threading.Lock()
    working = threading.Event()
    shutdown = threading.Event()

    def _beat() -> None:
        while not shutdown.wait(heartbeat):
            if os.getppid() != supervisor_pid:
                os._exit(1)
            if not working.is_set():
                continue
            try:
                with send_lock:
                    conn.send(("hb",))
            except Exception:
                return

    threading.Thread(target=_beat, daemon=True).start()

    def run_point(fn, i: int, point, key: str, root: Optional[str]) -> bool:
        """Run, publish and report one point; False when the pipe is gone."""
        collector = _events.install_sink(_events.EventCollector())
        working.set()
        t0 = time.perf_counter()
        try:
            result = fn(point)
            seconds = time.perf_counter() - t0
            payload = pickle.dumps(result)
            published = cas.write_record(root, key, payload) if root else None
            working.clear()
            with send_lock:
                conn.send(("ok", i, seconds, payload, published,
                           collector.records))
        except BaseException as exc:  # noqa: BLE001 -- report, parent decides
            working.clear()
            seconds = time.perf_counter() - t0
            summary = f"{type(exc).__name__}: {exc}"
            tb = traceback.format_exc()
            try:
                with send_lock:
                    conn.send(("error", i, seconds, exc, summary, tb,
                               collector.records))
            except Exception:
                try:
                    with send_lock:
                        conn.send(("error", i, seconds, None, summary, tb,
                                   collector.records))
                except Exception:
                    return False
        finally:
            working.clear()
            _events.remove_sink(collector)
        return True

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            shutdown.set()
            return
        if not isinstance(msg, tuple) or not msg or msg[0] == "stop":
            shutdown.set()
            try:
                conn.close()
            except Exception:
                pass
            return
        _, fn, indices, points, keys, root = msg
        for i, point, key in zip(indices, points, keys):
            if not run_point(fn, i, point, key, root):
                shutdown.set()
                return


class _Worker:
    """One worker process plus its pipe and current row.  It lives until
    it is stopped or killed; its dispatcher decides when
    (:meth:`WorkStealingDispatcher.__exit__`)."""

    def __init__(self, ctx, slot: int,
                 heartbeat: float = DEFAULT_HEARTBEAT) -> None:
        self.slot = slot
        self.supervisor = os.getpid()
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main, args=(child, heartbeat, self.supervisor),
            daemon=True,
        )
        self.proc.start()
        child.close()
        #: The unanswered ``(index, attempt)`` tasks of the row it holds;
        #: the head is the point in flight.
        self.row: "deque[tuple[int, int]]" = deque()
        self.started = 0.0
        self.last_beat = 0.0

    @property
    def busy(self) -> bool:
        return bool(self.row)

    @property
    def watermark(self) -> float:
        """Most recent proof of life for the point in flight."""
        return max(self.started, self.last_beat)

    def assign(self, payload: bytes, row: "List[tuple[int, int]]") -> None:
        """Hand over one pre-pickled ``("run", fn, indices, points, keys,
        root)`` row."""
        self.conn.send_bytes(payload)
        self.row = deque(row)

    def stop(self) -> None:
        """Tell an idle worker to exit; :meth:`reap` then joins it."""
        try:
            self.conn.send(("stop",))
        except (OSError, ValueError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass

    def reap(self) -> None:
        self.proc.join(1.0)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(1.0)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join()

    def kill(self) -> None:
        """Hard-kill: SIGKILL, which also fells SIGSTOPped (stalled)
        workers that would shrug off a SIGTERM while suspended."""
        try:
            self.conn.close()
        except OSError:
            pass
        try:
            self.proc.kill()
        except Exception:
            pass
        self.proc.join()


class WorkStealingDispatcher:
    """Shard a batch over long-lived workers; steal from stragglers.

    Drop-in for an :class:`ExperimentRunner` wherever a ``runner`` is
    accepted (``explore_design_space(runner=...)``,
    ``load_sweep(runner=...)``): it exposes the same :meth:`map` /
    :meth:`map_rows` contract -- results in input order, caching,
    retries, timeouts, events, ``last_manifests`` -- because the
    bookkeeping *is* the runner's, via
    :class:`~repro.flow.session.MapSession`.

    Parameters: ``runner`` supplies configuration and owns the
    cache/store/events; ``workers`` is the pool width (defaults to
    ``max(2, runner.jobs)``).  Supervision knobs (see the module
    docstring): ``heartbeat`` (worker tick period), ``liveness``
    (heartbeat silence before a busy worker is killed as stalled;
    ``None`` disables), ``poison_threshold`` (consecutive worker kills
    before a point is quarantined) and ``restart_budget`` (max worker
    respawns per :meth:`map`; ``None`` means ``max(8, 4 * workers)``).

    Counters: ``spawned`` (worker processes started -- first spawns,
    restarts and replacements of a kept worker found dead alike; the
    count that says whether a call paid a fork), ``steals`` (rows taken
    from another shard), ``dispatched`` (points started on workers),
    ``worker_restarts`` (workers respawned after a crash, stall or
    timeout), ``stalls`` (workers killed by the liveness deadline),
    ``poisoned`` (points quarantined).

    Worker lifetime: the dispatcher is a context manager.  Inside
    ``with dispatcher:`` the workers a call leaves idle are kept for the
    next call; leaving the outermost block stops and reaps them.  A
    ``map`` outside any block is a block of one call, so it spawns and
    reaps its own workers.  ``runner`` may be re-pointed between calls
    (:class:`repro.serve.QueryEngine` does, per query).
    """

    def __init__(
        self,
        runner: ExperimentRunner,
        workers: Optional[int] = None,
        *,
        heartbeat: float = DEFAULT_HEARTBEAT,
        liveness: Optional[float] = DEFAULT_LIVENESS,
        poison_threshold: int = DEFAULT_POISON_THRESHOLD,
        restart_budget: Optional[int] = None,
    ) -> None:
        self._idle: List[_Worker] = []  # kept between calls while open
        self._depth = 0  # open ``with`` blocks; a map_rows call is one
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if heartbeat <= 0:
            raise ValueError(f"heartbeat must be positive seconds, got {heartbeat}")
        if liveness is not None and liveness <= heartbeat:
            raise ValueError(
                f"liveness ({liveness}) must exceed the heartbeat period "
                f"({heartbeat}) or stall detection misfires on healthy workers"
            )
        if poison_threshold < 1:
            raise ValueError(
                f"poison_threshold must be >= 1, got {poison_threshold}"
            )
        if restart_budget is not None and restart_budget < 0:
            raise ValueError(
                f"restart_budget must be >= 0, got {restart_budget}"
            )
        self.runner = runner
        self.workers = workers if workers is not None else max(2, runner.jobs)
        self.heartbeat = heartbeat
        self.liveness = liveness
        self.poison_threshold = poison_threshold
        self.restart_budget = restart_budget
        self.spawned = 0
        self.steals = 0
        self.dispatched = 0
        self.worker_restarts = 0
        self.stalls = 0
        self.poisoned = 0

    # -- worker lifetime --------------------------------------------------
    def __enter__(self) -> "WorkStealingDispatcher":
        self._depth += 1
        return self

    def __exit__(self, *exc: object) -> None:
        self._depth -= 1
        if self._depth <= 0:
            self._reap_idle()

    def _reap_idle(self) -> None:
        """Leaving the outermost block: every idle worker is told to
        stop before the first is joined, so they exit in parallel."""
        idle, self._idle = self._idle, []
        for worker in idle:
            worker.stop()
        for worker in idle:
            try:
                worker.reap()
            except Exception:
                worker.kill()

    def __del__(self) -> None:
        # Dropped while held open (an engine nobody closed): the
        # workers go with their owner, not at interpreter exit.  A
        # forked copy of this object owns nothing.
        if self._idle and self._idle[0].supervisor == os.getpid():
            self._reap_idle()

    @property
    def live_workers(self) -> int:
        """Kept idle workers whose process is still alive."""
        return sum(1 for w in self._idle if w.proc.is_alive())

    def _spawn(self, slot: int) -> _Worker:
        self.spawned += 1
        return _Worker(multiprocessing.get_context(), slot, self.heartbeat)

    def _draw(self, n: int) -> "List[Optional[_Worker]]":
        """``n`` live workers numbered ``0..n-1``: kept ones first,
        spawning only what is missing.  A kept worker found dead (an
        OOM kill between two calls) is buried and replaced here, at no
        charge to any point or to the call's restart budget."""
        alive = []
        for worker in self._idle:
            if worker.proc.is_alive():
                alive.append(worker)
            else:
                worker.kill()
        self._idle = alive  # still the owner's if a fork below fails
        fresh = [self._spawn(slot) for slot in range(len(alive), n)]
        pool: "List[Optional[_Worker]]" = alive[:n] + fresh
        self._idle = alive[n:]
        for slot, worker in enumerate(pool):
            worker.slot = slot
        return pool

    # Delegate the runner surface callers poke at after a sweep.
    @property
    def failures(self):
        return self.runner.failures

    @property
    def last_manifests(self):
        return self.runner.last_manifests

    def attach_manifests(self, fn, points, results):
        return self.runner.attach_manifests(fn, points, results)

    def render_report(self, title: str = "work-stealing dispatcher") -> str:
        lines = [
            self.runner.render_report(title),
            f"  dispatch: workers={self.workers} spawned={self.spawned} "
            f"steals={self.steals} "
            f"dispatched={self.dispatched} restarts={self.worker_restarts} "
            f"stalls={self.stalls} poisoned={self.poisoned}",
        ]
        return "\n".join(lines)

    def map(
        self,
        fn: Callable[[Any], Any],
        points: Sequence[Any],
        label: str = "point",
    ) -> List[Any]:
        """``runner.map`` semantics under work-stealing scheduling:
        :meth:`map_rows` over one-point rows."""
        return [
            row[0] for row in self.map_rows(fn, [[p] for p in points], label)
        ]

    def map_rows(
        self,
        fn: Callable[[Any], Any],
        rows: Sequence[Sequence[Any]],
        label: str = "point",
    ) -> List[List[Any]]:
        """``runner.map_rows`` semantics under work-stealing scheduling.
        An ``fn`` that does not pickle raises :class:`ValueError` before
        any worker is spawned or any event is emitted."""
        session = MapSession.over_rows(self.runner, fn, rows, label)
        if session.pending:
            try:
                ForkingPickler.dumps(fn)
            except Exception as exc:
                name = getattr(fn, "__qualname__", None) or repr(fn)
                raise ValueError(
                    f"cannot run {name!r} on worker processes: it does not "
                    f"pickle ({type(exc).__name__}: {exc}).  Use a named "
                    "module-level function (or functools.partial over one), "
                    "or jobs=1."
                ) from exc
        with self:  # outside any other block, this call is one of its own
            return session.execute(self._run_stealing, jobs=self.workers)

    # -- scheduling -------------------------------------------------------
    def _run_stealing(self, session: MapSession) -> None:
        n_workers = min(self.workers, len(session.pending_rows)) or 1
        timeout = session.runner.timeout
        budget = self.restart_budget
        if budget is None:
            budget = max(8, 4 * n_workers)

        # Round-robin sharding: worker w owns pending_rows[w::n_workers].
        # A shard holds rows of (index, attempt) tasks; ``home`` is the
        # shard a point's row was dealt to.
        shards: List[deque] = [deque() for _ in range(n_workers)]
        home: Dict[int, int] = {}
        for rank, row in enumerate(session.pending_rows):
            shards[rank % n_workers].append([(i, 1) for i in row])
            home.update(dict.fromkeys(row, rank % n_workers))
        delayed: List["tuple[float, int, int]"] = []  # (not_before, i, attempt)
        respawn_at: Dict[int, float] = {}  # dead slot -> revival time
        slot_restarts: Dict[int, int] = {}
        kill_streak: Dict[int, int] = {}  # point -> consecutive worker kills
        outstanding = len(session.pending)
        budget_left = budget

        def next_row(slot: int) -> Optional["List[tuple[int, int]]"]:
            """Own shard first; otherwise steal from the richest."""
            if shards[slot]:
                return shards[slot].popleft()
            victim = max(
                range(n_workers), key=lambda v: len(shards[v]), default=None
            )
            if victim is None or not shards[victim]:
                return None
            row = shards[victim].pop()  # tail: the victim's furthest work
            self.steals += 1
            _events.emit(
                "steal", label=f"{session.label}[{row[0][0]}]",
                key=session.keys[row[0][0]], thief=slot, victim=victim,
            )
            return row

        def schedule_respawn(slot: int) -> None:
            """Retire a slot; revive it after a jittered backoff if the
            restart budget allows, else leave it permanently dark."""
            nonlocal budget_left
            pool[slot] = None
            if budget_left <= 0:
                return
            budget_left -= 1
            nth = slot_restarts[slot] = slot_restarts.get(slot, 0) + 1
            delay = min(5.0, session.backoff_delay(slot, nth, kind="respawn"))
            respawn_at[slot] = time.monotonic() + delay

        def attempt_failed(i: int, attempt: int, seconds: float, kind: str,
                           message: str, exc, tb: str) -> None:
            nonlocal outstanding
            if session.attempt_failed(i, attempt, seconds, kind, message,
                                      exc, tb):
                not_before = time.monotonic() + session.backoff_delay(i, attempt)
                delayed.append((not_before, i, attempt + 1))
            else:
                outstanding -= 1

        def point_started(worker: _Worker) -> None:
            """The head of ``worker.row`` is now the point in flight:
            both supervision clocks are per point, so they restart."""
            i, attempt = worker.row[0]
            worker.started = worker.last_beat = time.monotonic()
            self.dispatched += 1
            _events.emit(
                "point_start", label=f"{session.label}[{i}]",
                key=session.keys[i], attempt=attempt,
            )

        def feed(worker: _Worker) -> None:
            while True:
                row = next_row(worker.slot)
                if row is None:
                    return
                indices = [i for i, _ in row]
                try:
                    payload = ForkingPickler.dumps((
                        "run", session.fn, indices,
                        [session.points[i] for i in indices],
                        [session.keys[i] for i in indices], session.root,
                    ))
                except Exception as exc:
                    if len(row) > 1:
                        # Some point of the row does not pickle: split
                        # it, so the offender is charged alone below.
                        shards[worker.slot].extendleft(
                            [task] for task in reversed(row)
                        )
                        continue
                    # The point does not pickle: charge it alone and
                    # offer this worker the next row.
                    attempt_failed(
                        *row[0], 0.0, "error",
                        f"point does not pickle: {type(exc).__name__}: {exc}",
                        exc, traceback.format_exc(),
                    )
                    continue
                try:
                    worker.assign(payload, row)
                except (OSError, ValueError):
                    # The worker died while idle: retire the slot and
                    # put the row back where it came from.
                    worker.kill()
                    schedule_respawn(worker.slot)
                    shards[worker.slot].appendleft(row)
                    return
                point_started(worker)
                return

        def worker_killed(worker: _Worker, seconds: float, kind: str,
                          message: str) -> None:
            """One worker hard-killed mid-row: retire the slot and hand
            the row's unanswered rest back to the head of its shard,
            attempts unchanged.  The point in flight alone is charged:
            quarantined (it has now felled ``poison_threshold`` workers
            in a row) or sent through the normal retry machinery."""
            nonlocal outstanding
            i, attempt = worker.row.popleft()
            if worker.row:
                shards[home[i]].appendleft(list(worker.row))
                worker.row.clear()
            worker.kill()
            schedule_respawn(worker.slot)
            streak = kill_streak[i] = kill_streak.get(i, 0) + 1
            if streak >= self.poison_threshold:
                self.poisoned += 1
                kill_streak.pop(i, None)
                _events.emit(
                    "poisoned", label=f"{session.label}[{i}]",
                    key=session.keys[i], worker_kills=streak,
                )
                session.finish_failed(
                    i, attempt, seconds, "poisoned",
                    f"quarantined: killed {streak} consecutive workers "
                    f"(last: {message})",
                    None, "",
                )
                outstanding -= 1
            else:
                attempt_failed(i, attempt, seconds, kind, message, None, "")

        pool = self._draw(n_workers)
        try:
            while outstanding > 0:
                now = time.monotonic()
                for slot, due in list(respawn_at.items()):
                    if due <= now:
                        respawn_at.pop(slot)
                        pool[slot] = self._spawn(slot)
                        self.worker_restarts += 1
                if delayed:
                    due_tasks = [d for d in delayed if d[0] <= now]
                    delayed = [d for d in delayed if d[0] > now]
                    for _, i, attempt in sorted(due_tasks, key=lambda d: d[1]):
                        # Re-attempts go back to the owning shard's head,
                        # as one-point rows, so any idle worker picks
                        # them up promptly.
                        shards[home[i]].appendleft([(i, attempt)])
                for worker in pool:
                    if worker is not None and not worker.busy:
                        feed(worker)

                busy = [w for w in pool if w is not None and w.busy]
                if not busy:
                    wakeups = [d[0] for d in delayed]
                    wakeups.extend(respawn_at.values())
                    if wakeups:
                        time.sleep(max(
                            0.0, min(wakeups) - time.monotonic(),
                        ))
                        continue
                    if outstanding > 0 and not any(pool):
                        # Restart budget exhausted with no survivors:
                        # fail every task still queued, explicitly.
                        queued = [t for shard in shards for row in shard
                                  for t in row]
                        for shard in shards:
                            shard.clear()
                        for i, attempt in queued:
                            session.finish_failed(
                                i, attempt, 0.0, "crash",
                                f"worker restart budget ({budget}) exhausted "
                                f"with no workers left",
                                None, "",
                            )
                            outstanding -= 1
                    break  # nothing running, nothing queued: done or stuck

                wait_for = 0.2
                now = time.monotonic()
                if timeout is not None:
                    nearest = min(w.started + timeout for w in busy)
                    wait_for = min(wait_for, max(0.0, nearest - now))
                if self.liveness is not None:
                    nearest = min(w.watermark + self.liveness for w in busy)
                    wait_for = min(wait_for, max(0.0, nearest - now))
                if delayed:
                    wait_for = min(
                        wait_for, max(0.0, min(d[0] for d in delayed) - now)
                    )
                if respawn_at:
                    wait_for = min(
                        wait_for, max(0.0, min(respawn_at.values()) - now)
                    )
                ready = _connection_wait(
                    [w.conn for w in busy], timeout=wait_for
                )
                by_conn = {w.conn: w for w in busy}

                for conn in ready:
                    worker = by_conn[conn]
                    seconds = time.monotonic() - worker.started
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        msg = None
                    if msg is not None and msg[0] == "hb":
                        worker.last_beat = time.monotonic()
                        continue  # still working; the row stays assigned
                    if msg is None:
                        # The worker died mid-point: retire the slot,
                        # charge only the point it held.
                        worker.proc.join(1.0)  # reap, so exitcode is real
                        code = worker.proc.exitcode
                        worker_killed(
                            worker, seconds, "crash",
                            f"worker died without reporting (exitcode {code})",
                        )
                        continue
                    _, attempt = worker.row.popleft()
                    if msg[0] == "ok":
                        _, ri, fn_seconds, payload, published, wevents = msg
                        _events.forward(wevents)
                        kill_streak.pop(ri, None)
                        session.finish_ok(ri, attempt, fn_seconds,
                                          pickle.loads(payload), published)
                        outstanding -= 1
                    else:
                        _, ri, fn_seconds, exc, summary, tb, wevents = msg
                        _events.forward(wevents)
                        # A clean error report means the worker survived
                        # the point: the kill streak is broken.
                        kill_streak.pop(ri, None)
                        attempt_failed(
                            ri, attempt, fn_seconds, "error", summary, exc, tb
                        )
                    if worker.row:  # the worker is already on the next
                        point_started(worker)

                now = time.monotonic()
                if timeout is not None:
                    for worker in pool:
                        if (worker is None or not worker.busy
                                or now - worker.started < timeout):
                            continue
                        worker_killed(
                            worker, now - worker.started, "timeout",
                            f"exceeded {timeout:g}s wall-clock limit",
                        )
                if self.liveness is not None:
                    for worker in pool:
                        if (worker is None or not worker.busy
                                or now - worker.watermark < self.liveness):
                            continue
                        i = worker.row[0][0]
                        silent = now - worker.watermark
                        self.stalls += 1
                        _events.emit(
                            "worker_stall", label=f"{session.label}[{i}]",
                            key=session.keys[i], slot=worker.slot,
                            silent_for=round(silent, 3),
                        )
                        worker_killed(
                            worker, now - worker.started, "stall",
                            f"no heartbeat for {silent:.1f}s "
                            f"(liveness {self.liveness:g}s)",
                        )
        finally:
            # Whatever interrupted the loop -- the deferred first
            # failure, KeyboardInterrupt, a test's assertion --
            # never leak a worker process: a busy one is killed, an idle
            # one goes back to the kept set, which leaving the outermost
            # ``with`` block (map_rows' own, outside any other) reaps.
            for worker in pool:
                if worker is None:
                    continue
                if worker.busy:
                    try:
                        worker.kill()
                    except Exception:
                        pass
                else:
                    self._idle.append(worker)
