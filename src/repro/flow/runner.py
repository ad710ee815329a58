"""Parallel, cached, crash-tolerant execution of independent experiment points.

Every sweep in the benchmarks decomposes into independent "build a NoC,
run it, summarise" points.  :class:`ExperimentRunner` executes a batch
of such points

* **in parallel** when ``jobs > 1``, on the supervised pool of
  :mod:`repro.flow.pool`: ``jobs`` long-lived worker processes fed over
  pipes, with work stealing, heartbeats, a restart budget and
  poison-point quarantine.  A worker that dies (segfault, OOM kill,
  unhandled exception) takes down only the point it held and is
  respawned.  There is one pool: ``ExperimentRunner(jobs=N).map`` *is*
  ``WorkStealingDispatcher(runner, workers=N).map``.  Workers live as
  long as their owner says: one ``map`` call by default (forked on
  entry, reaped on return), or the whole of a ``with runner:`` block,
  which holds one dispatcher open so a run of many ``map`` calls forks
  ``jobs`` processes once.  Module-level state persists across the
  points one worker runs (as it does inline) and can reach no result:
  ``fn`` and the points must pickle, and cross the pipe with every
  row.  :meth:`ExperimentRunner.map_rows` farms points a **row** at
  a time -- one pickle, one worker, in order -- so what a row's points
  share is built once per row; a fault inside a row still costs only
  the point in flight (:mod:`repro.flow.pool`);
* **memoized on disk** when a ``store`` (a
  :class:`repro.store.ResultStore`) is configured: each point's result
  is a sha256-verified record under a key derived from the *identity*
  of the work (function qualname + arguments), so re-generating figures
  after an unrelated edit costs nothing.  The store's root also hosts
  the ``runs.jsonl`` journal and the ``events.jsonl`` stream;
* **resiliently**: per-point wall-clock ``timeout``, bounded ``retries``
  with exponential backoff, and a ``runs.jsonl`` journal recording
  every completion and failure.  Results stream into the store and
  journal *as points finish*, so killing a sweep mid-flight loses none
  of the completed points -- re-running on the same store picks up
  where it stopped (resume *is* run again: a stored point is a hit).
  See ``docs/CHECKPOINT.md`` and ``docs/RESILIENCE.md``.

The cache keys come from :mod:`repro.flow.keying` (re-exported here):
change any argument -- or bump the library's :data:`CACHE_VERSION` --
and the key changes.  See ``docs/PERFORMANCE.md`` for the rules and for
what is deliberately *not* hashed (code bodies: delete the store after
editing measurement code).

All knobs default off (``jobs=1``, no cache, no timeout, no retries),
so existing sequential behaviour is unchanged unless a caller opts in:
``python -m repro figures --jobs N --cache DIR`` builds one
``ExperimentRunner(jobs=N, store=ResultStore(DIR))`` and hands it to
every figure's ``main(runner)``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import random
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import __version__
from repro.flow.keying import (  # noqa: F401 -- the keying names' old home
    CACHE_VERSION,
    check_keyable_fn,
    point_key,
    point_keys,
    stable_repr,
)
from repro.flow.pool import WorkStealingDispatcher
from repro.store import cas

#: Kinds a :class:`PointFailure` can carry: the worker function raised,
#: exceeded the wall-clock ``timeout``, the worker process died without
#: reporting (segfault / OOM kill / SIGKILL), went silent past the
#: pool's liveness deadline (``stall``: wedged, not dead), or was
#: quarantined after killing too many consecutive workers
#: (``poisoned``; see :mod:`repro.flow.pool`).
FAILURE_KINDS = ("error", "timeout", "crash", "stall", "poisoned")

#: Fractional jitter on every backoff delay: each delay is multiplied by
#: ``1 + BACKOFF_JITTER * u`` with ``u`` in ``[0, 1)`` drawn from a
#: :class:`random.Random` seeded from the sweep's cache keys (see
#: :meth:`MapSession.backoff_delay`).  Deterministic by construction --
#: two runs of the same plan sleep the same delays in the same order --
#: so jitter decorrelates retry storms without costing reproducibility.
BACKOFF_JITTER = 0.1


def read_journal(path: str) -> List[Dict[str, Any]]:
    """Every complete ``runs.jsonl`` record at ``path``, in file order
    (``[]`` when there is no file).  The journal is append-only and
    every line stands on its own, so a line torn by a kill is skipped,
    not fatal."""
    from repro.telemetry.events import read_events

    return [rec for rec in read_events(path) if isinstance(rec.get("key"), str)]


@dataclass
class PointReport:
    """Wall-clock accounting for one *executed* point.

    A cache hit leaves no report: it cost nothing, and ``cache_hits``,
    ``last_manifests`` and the ``point_end cached=true`` event already
    say it happened -- so a long-lived runner serving hits retains
    nothing per hit.
    """

    __slots__ = ("label", "key", "seconds")

    label: str
    key: str
    seconds: float


@dataclass
class PointFailure:
    """One point that exhausted its attempts -- with a repro bundle.

    ``kind`` is one of :data:`FAILURE_KINDS`.  ``point_repr`` /
    ``fn_repr`` are the :func:`stable_repr` of the inputs -- together
    with the cache key they identify the exact work to re-run in
    isolation (``runner.map(fn, [the_point])``).
    """

    label: str
    key: str
    kind: str
    message: str
    attempts: int
    seconds: float
    point_repr: str
    fn_repr: str
    traceback: str = ""

    def as_record(self) -> Dict[str, Any]:
        """JSON-serialisable journal form."""
        return {
            "status": "failed",
            "label": self.label,
            "key": self.key,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
            "seconds": round(self.seconds, 6),
            "point": self.point_repr,
            "fn": self.fn_repr,
        }


@dataclass(frozen=True)
class RunManifest:
    """Provenance record for one executed (or cache-served) point.

    Answers "where did this number come from?" long after the sweep: the
    cache key identifies the exact work, ``cached`` says whether this
    process computed it or served a stored record, ``seconds`` is the compute
    cost (0 for cache hits), and the version pair pins the library state
    the result was produced under.  :meth:`ExperimentRunner.map` stores
    one per point, in input order, in ``last_manifests``;
    :func:`repro.network.experiments.load_sweep` attaches them to its
    :class:`~repro.network.experiments.LoadPoint` results.
    """

    key: str
    cached: bool
    seconds: float
    repro_version: str
    cache_version: int = CACHE_VERSION

    @classmethod
    def local(cls, key: str, cached: bool, seconds: float) -> "RunManifest":
        return cls(
            key=key,
            cached=cached,
            seconds=seconds,
            repro_version=__version__,
        )


@dataclass
class ExperimentRunner:
    """Fan independent experiment points out; memoize their results.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` (default) runs inline in this
        process, which keeps everything debuggable and imposes no
        picklability requirement.  With ``jobs > 1`` the points run on
        ``jobs`` long-lived supervised worker processes
        (:mod:`repro.flow.pool`), so a dying worker is isolated.
    store:
        Optional :class:`repro.store.ResultStore`: the sha256-verified
        content-addressed result tier (docs/SERVICE.md), consulted
        before computing and published to as points finish, so many
        runners -- possibly on many hosts -- pool their work.  Its root
        also hosts the ``runs.jsonl`` journal and ``events.jsonl``.
        ``None`` (default) disables memoization.
    timeout:
        Per-point wall-clock limit in seconds.  Enforced only when
        ``jobs > 1`` (a timed-out worker is SIGKILLed); inline
        execution cannot be preempted and ignores it.
    retries:
        How many times a failed point is re-attempted (so a point runs
        at most ``retries + 1`` times).  Re-attempts are delayed by
        ``backoff * 2**attempt`` seconds, jittered by
        :data:`BACKOFF_JITTER`.
    backoff:
        Base delay for the exponential retry backoff, in seconds.
    on_failure:
        ``"raise"`` (default): after *all* points have finished (so
        completed siblings are cached and journaled), re-raise the
        first failure's exception.  ``"record"``: never raise; failed
        points yield ``None`` results and a :class:`PointFailure` in
        ``failures``.
    metrics:
        Optional :class:`repro.telemetry.registry.MetricsRegistry`;
        when set, ``runner.retries`` / ``runner.timeouts`` /
        ``runner.crashes`` / ``runner.failures`` /
        ``runner.corrupt_cache_entries`` counters are kept there too.
    events_path:
        Structured event stream destination
        (``repro.telemetry.events``, schema
        ``repro.telemetry.events/v1``).  Defaults to
        ``<store root>/events.jsonl`` whenever a store is configured;
        set explicitly to stream without a store.  Workers ship their
        events back over the result pipe; the parent merges everything
        into one append-only file that ``python -m repro top`` tails.
    """

    jobs: int = 1
    store: Optional[Any] = None
    timeout: Optional[float] = None
    retries: int = 0
    backoff: float = 0.5
    on_failure: str = "raise"
    metrics: Optional[Any] = None
    events_path: Optional[str] = None
    reports: List[PointReport] = field(default_factory=list, init=False)
    failures: List[PointFailure] = field(default_factory=list, init=False)
    cache_hits: int = field(default=0, init=False)
    cache_misses: int = field(default=0, init=False)
    retry_count: int = field(default=0, init=False)
    timeout_count: int = field(default=0, init=False)
    crash_count: int = field(default=0, init=False)
    stall_count: int = field(default=0, init=False)
    failure_count: int = field(default=0, init=False)
    corrupt_cache_entries: int = field(default=0, init=False)
    #: Per-point provenance for the most recent :meth:`map` call, in
    #: input order, hits included (unlike ``reports``, which accumulates
    #: the *executed* points across calls in completion order).  Failed
    #: points carry no manifest.
    last_manifests: List[RunManifest] = field(default_factory=list, init=False)
    #: The pool ``with runner:`` holds open (``jobs > 1`` only); its
    #: ``spawned`` says how many processes the block's maps started.
    dispatcher: Optional[WorkStealingDispatcher] = field(
        default=None, init=False, repr=False, compare=False
    )
    _warned_corrupt: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be a positive worker count, got {self.jobs}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive seconds, got {self.timeout}")
        if self.on_failure not in ("raise", "record"):
            raise ValueError(
                f"on_failure must be 'raise' or 'record', got {self.on_failure!r}"
            )

    # -- pool lifetime ----------------------------------------------------
    def __enter__(self) -> "ExperimentRunner":
        """Hold one pool open for every ``map`` made inside the block:
        ``jobs`` workers are forked by the first and reaped on the way
        out, instead of once per call.  Nothing to hold at ``jobs=1``."""
        if self.jobs > 1:
            if self.dispatcher is None:
                self.dispatcher = WorkStealingDispatcher(self, workers=self.jobs)
            self.dispatcher.__enter__()
        return self

    def __exit__(self, *exc: object) -> None:
        if self.jobs > 1:
            self.dispatcher.__exit__(*exc)

    # -- telemetry --------------------------------------------------------
    def _count(self, name: str, attr: str) -> None:
        setattr(self, attr, getattr(self, attr) + 1)
        if self.metrics is not None:
            self.metrics.counter(f"runner.{name}").inc()

    # -- cache plumbing ---------------------------------------------------
    def _cache_probe(self, keys: List[str]) -> "List[tuple[bool, Any]]":
        """``(hit, value)`` for each of ``keys``: one batched store read."""
        store = self.store
        if store is None:
            return [(False, None)] * len(keys)
        corrupt_before = store.corrupt_records
        found = store.get_many(keys)
        for _ in range(store.corrupt_records - corrupt_before):
            # The store counted the record, dropped it from its index
            # and reports a miss, so the recomputed result republishes
            # cleanly.
            self._count("corrupt_cache_entries", "corrupt_cache_entries")
            if not self._warned_corrupt:
                self._warned_corrupt = True
                warnings.warn(
                    f"an experiment cache entry in {store.root} is "
                    "unreadable; quarantined (dropped from the store's "
                    "index) and recomputing (further corrupt entries this "
                    "run are counted silently)",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return found

    # -- journal ----------------------------------------------------------
    @property
    def journal_path(self) -> Optional[str]:
        """``runs.jsonl`` inside the store root (None without a store)."""
        if self.store is None:
            return None
        return os.path.join(self.store.root, "runs.jsonl")

    # -- execution --------------------------------------------------------
    def map(
        self,
        fn: Callable[[Any], Any],
        points: Sequence[Any],
        label: str = "point",
    ) -> List[Any]:
        """``[fn(p) for p in points]`` with caching, parallelism and
        failure isolation.

        Results come back in input order.  ``fn`` must be a module-level
        callable (or :func:`functools.partial` over one) when
        ``jobs > 1`` so worker processes can run it; its arguments
        should be stable_repr-hashable when caching is on.

        Completed points are cached and journaled the moment they
        finish, *before* the batch ends -- a killed sweep loses nothing
        already done.  A failing point (exception, timeout, or worker
        death) is retried up to ``retries`` times with exponential
        backoff; a point that exhausts its attempts becomes a
        :class:`PointFailure` and, under ``on_failure="raise"``, the
        first failure is re-raised only after every sibling has
        finished.

        The bookkeeping (cache probing, journaling, manifests, event
        stream, retry accounting) lives in :class:`MapSession`; only
        the scheduling differs between inline execution and the pool
        (:class:`repro.flow.pool.WorkStealingDispatcher`, at its
        supervision defaults, when ``jobs > 1``).
        """
        return [
            row[0] for row in self.map_rows(fn, [[p] for p in points], label)
        ]

    def map_rows(
        self,
        fn: Callable[[Any], Any],
        rows: Sequence[Sequence[Any]],
        label: str = "point",
    ) -> List[List[Any]]:
        """``[[fn(p) for p in row] for row in rows]``: :meth:`map` over
        the concatenated rows -- same keys, records, events, labels
        (``label[i]`` counts across rows) and failure handling, all per
        point -- with the **row** as the unit of farm work.

        A row's pending points cross the pipe in one pickle and run in
        order in one worker, so objects they share here (a
        :class:`~repro.flow.selection.MappedFabric`) are shared there,
        exactly as they are inline.  :meth:`map` is the one-point-row
        case.  See :mod:`repro.flow.pool` for what a crash, stall,
        timeout or raise inside a row costs (the point in flight, never
        the row).
        """
        if self.jobs > 1:
            farm = self.dispatcher or WorkStealingDispatcher(self, workers=self.jobs)
            return farm.map_rows(fn, rows, label)
        return MapSession.over_rows(self, fn, rows, label).execute(
            self._run_inline, jobs=1
        )

    def attach_manifests(
        self, fn: Callable, points: Sequence[Any], results: Sequence[Any]
    ) -> List[Any]:
        """The results of the :meth:`map` call just made, each survivor
        carrying its *own* :class:`RunManifest` in ``.manifest``.

        Matched by cache key, not position: ``last_manifests`` is
        compacted past failed points (``None`` results under
        ``on_failure="record"``, which stay ``None`` here), so zipping
        it against the results would hand survivors a neighbour's
        provenance.
        """
        by_key = {m.key: m for m in self.last_manifests}
        return [
            None if r is None else dataclasses.replace(r, manifest=by_key[key])
            for key, r in zip(point_keys(fn, points), results)
        ]

    def _run_inline(self, session: "MapSession") -> None:
        """Sequential execution of the pending points (``jobs == 1``):
        each point is computed and published here, with the same
        :func:`repro.store.cas.write_record` a pool worker calls, and a
        publish that raises is an ``"error"`` of its point, as there."""
        from repro.telemetry import events as _events

        root = session.root
        for i in session.pending:
            attempts = 0
            while True:
                attempts += 1
                _events.emit(
                    "point_start", label=f"{session.label}[{i}]",
                    key=session.keys[i], attempt=attempts,
                )
                t0 = time.perf_counter()
                try:
                    result = session.fn(session.points[i])
                    seconds = time.perf_counter() - t0
                    published = cas.write_record(
                        root, session.keys[i], pickle.dumps(result)
                    ) if root else None
                except Exception as exc:
                    seconds = time.perf_counter() - t0
                    if session.attempt_failed(
                        i, attempts, seconds, "error",
                        f"{type(exc).__name__}: {exc}", exc,
                        traceback.format_exc(),
                    ):
                        time.sleep(session.backoff_delay(i, attempts))
                        continue
                    break
                session.finish_ok(i, attempts, seconds, result, published)
                break

    # -- reporting --------------------------------------------------------
    def render_report(self, title: str = "experiment runner") -> str:
        """Hit/miss and failure totals, then one wall-clock row per
        executed point and one per failure (hits are only counted)."""
        lines = [
            f"{title}: jobs={self.jobs} "
            f"store={'off' if self.store is None else self.store.root} "
            f"hits={self.cache_hits} misses={self.cache_misses}",
        ]
        if (self.retry_count or self.timeout_count or self.crash_count
                or self.stall_count or self.failure_count
                or self.corrupt_cache_entries):
            lines.append(
                f"  resilience: retries={self.retry_count} "
                f"timeouts={self.timeout_count} crashes={self.crash_count} "
                f"stalls={self.stall_count} failures={self.failure_count} "
                f"corrupt_cache_entries={self.corrupt_cache_entries}"
            )
        for r in self.reports:
            lines.append(f"  {r.label:<28} {r.seconds:>9.3f}s  {r.key[:12]}")
        for f in self.failures:
            lines.append(
                f"  {f.label:<28} {'FAILED':>10}  {f.key[:12]} "
                f"[{f.kind} x{f.attempts}] {f.message}"
            )
        return "\n".join(lines)


class MapSession:
    """Bookkeeping for one batch of points, shared across schedulers.

    Inline execution (``jobs=1``) and the pool
    (:class:`repro.flow.pool.WorkStealingDispatcher`) schedule work
    very differently -- a loop in this process vs. long-lived workers
    pulling from shards -- but everything *around* the scheduling is
    identical and lives here: cache keys and cache probing, the streamed
    store accounting and journal/manifest updates as points finish,
    retry accounting, the telemetry event stream, and the deferred
    first-failure re-raise.
    The store *record* of a point is written by whichever process ran
    the point; the session only accounts it (:meth:`finish_ok`).

    Lifecycle: construct (probes the cache, classifying every point as
    a hit or ``pending``), then :meth:`execute` with a scheduler, which
    calls :meth:`finish_ok` / :meth:`attempt_failed` as attempts
    resolve.

    Everything here is per point and indexed flat.  ``rows`` partitions
    the indices into the units a scheduler hands out
    (:meth:`ExperimentRunner.map_rows`; one-point rows by default);
    ``pending_rows`` is that partition with the hits taken out.
    """

    def __init__(
        self,
        runner: ExperimentRunner,
        fn: Callable[[Any], Any],
        points: Sequence[Any],
        label: str = "point",
        *,
        rows: Optional[List[List[int]]] = None,
    ) -> None:
        self.runner = runner
        self.fn = fn
        self.points = points
        self.rows = [[i] for i in range(len(points))] if rows is None else rows
        self.label = label

        if runner.store is not None:
            check_keyable_fn(fn)
        #: The store directory the point's process publishes into
        #: (None: nothing is stored).
        self.root: Optional[str] = (
            runner.store.root if runner.store is not None else None
        )
        self.keys = point_keys(fn, points)
        # Deterministic jitter seed: a function of *what* is being run,
        # not of wall-clock or pid, so a faulted run and its re-run
        # reproduce the exact same backoff delays (docs/RESILIENCE.md).
        self.jitter_seed = int.from_bytes(
            hashlib.sha256(
                ("backoff|" + label + "|" + "|".join(self.keys)).encode("utf-8")
            ).digest()[:8],
            "big",
        )
        self.results: List[Any] = [None] * len(points)
        self.manifests: List[Optional[RunManifest]] = [None] * len(points)
        self.tally = {"ok": 0, "failed": 0, "retries": 0}
        self.first_exc: Optional[BaseException] = None
        self.hits: List[int] = []
        self.pending: List[int] = []

        for i, (key, (hit, value)) in enumerate(
                zip(self.keys, runner._cache_probe(self.keys))):
            if hit:
                runner.cache_hits += 1
                self.results[i] = value
                self.manifests[i] = RunManifest.local(key, cached=True, seconds=0.0)
                self.hits.append(i)
            else:
                runner.cache_misses += 1
                self.pending.append(i)
        missed = set(self.pending)
        self.pending_rows = [
            todo for row in self.rows
            if (todo := [i for i in row if i in missed])
        ] if missed else []
        self._journal: Optional[Any] = None  # runs.jsonl, opened on first use

    @classmethod
    def over_rows(
        cls, runner: ExperimentRunner, fn: Callable[[Any], Any],
        rows: Sequence[Sequence[Any]], label: str = "point",
    ) -> "MapSession":
        """The session over the concatenation of ``rows``."""
        points = [p for row in rows for p in row]
        index = iter(range(len(points)))
        return cls(
            runner, fn, points, label,
            rows=[[next(index) for _ in row] for row in rows],
        )

    # -- backoff ----------------------------------------------------------
    def backoff_delay(self, i: int, attempt: int, kind: str = "retry") -> float:
        """Seconds to wait before re-attempt ``attempt + 1`` of point
        ``i`` (or before respawning dispatcher worker slot ``i`` with
        ``kind="respawn"``): exponential in the attempt number with
        deterministic multiplicative jitter.

        The jitter stream is keyed by ``(sweep, kind, i, attempt)``
        alone -- not by which worker failed or when -- so the delay for
        a given re-attempt is the same in every run of the same plan,
        regardless of scheduling order.  Two runs that meet the same
        faults therefore produce identically ordered retry timelines.
        """
        base = self.runner.backoff * (2 ** (attempt - 1))
        rng = random.Random(f"{self.jitter_seed}|{kind}|{i}|{attempt}")
        return base * (1.0 + BACKOFF_JITTER * rng.random())

    # -- event stream -----------------------------------------------------
    def events_path(self) -> Optional[str]:
        runner = self.runner
        if runner.events_path is not None:
            return runner.events_path
        if runner.store is not None:
            return os.path.join(runner.store.root, "events.jsonl")
        return None

    # -- lifecycle -------------------------------------------------------
    def execute(
        self, schedule: Callable[["MapSession"], None], jobs: int
    ) -> List[List[Any]]:
        """The one map lifecycle: open the event stream, emit
        ``run_start`` (``jobs`` is the pool width actually used) plus
        the cache-hit ``point_end`` records, let ``schedule(self)`` run
        the pending points, emit ``run_end``, close the stream, publish
        the manifests, re-raise the first failure under
        ``on_failure="raise"`` and return results in input order."""
        from repro.telemetry import events as _events

        path = self.events_path()
        writer = None if path is None else _events.install_sink(
            _events.EventWriter(path)
        )
        try:
            _events.emit(
                "run_start", label=self.label, points=len(self.points),
                pending=len(self.pending), cached=len(self.hits), jobs=jobs,
            )
            for i in self.hits:
                _events.emit(
                    "point_end", label=f"{self.label}[{i}]", key=self.keys[i],
                    status="ok", seconds=0.0, attempts=0, cached=True,
                )
            if self.pending:
                schedule(self)
            _events.emit(
                "run_end", label=self.label, ok=self.tally["ok"],
                failed=self.tally["failed"], cached=len(self.hits),
                retries=self.tally["retries"],
            )
        finally:
            if writer is not None:
                _events.remove_sink(writer)
                writer.close()
            if self._journal is not None:
                self._journal.close()
                self._journal = None
        self.runner.last_manifests = [m for m in self.manifests if m is not None]
        if self.first_exc is not None:
            raise self.first_exc
        results = self.results
        return [[results[i] for i in row] for row in self.rows]

    def _journal_append(self, record: Dict[str, Any]) -> None:
        """One ``runs.jsonl`` line, written and flushed now (a killed
        sweep loses nothing); the file is opened once per session."""
        if self._journal is None:
            path = self.runner.journal_path
            if path is None:
                return
            from repro.telemetry.events import EventWriter

            self._journal = EventWriter(path)
        self._journal.write(record)

    # -- attempt outcomes -------------------------------------------------
    def finish_ok(
        self, i: int, attempts: int, seconds: float, result: Any,
        published: Optional["tuple[cas.StoreRecord, str, cas.Location]"],
    ) -> None:
        """Account a point that ran and was published where it ran:
        ``published`` is :func:`repro.store.cas.write_record`'s
        ``(header, outcome, location)`` (None without a store), which
        the store indexes -- under ``keys[i]``, so the index shares this
        session's key strings -- and counts here; no record is written
        here."""
        from repro.telemetry import events as _events

        runner = self.runner
        # Interned: a runner that maps one label again and again (a
        # sweep per seed) keeps one string per point label, not one per
        # report.
        label = sys.intern(f"{self.label}[{i}]")
        self.results[i] = result
        self.manifests[i] = RunManifest.local(
            self.keys[i], cached=False, seconds=seconds
        )
        runner.reports.append(PointReport(label, self.keys[i], seconds))
        if published is not None:
            runner.store.account(*published, key=self.keys[i])
        self._journal_append(
            {
                "status": "ok",
                "label": label,
                "key": self.keys[i],
                "seconds": round(seconds, 6),
                "attempts": attempts,
            }
        )
        self.tally["ok"] += 1
        _events.emit(
            "point_end", label=label, key=self.keys[i],
            status="ok", seconds=round(seconds, 6), attempts=attempts,
            cached=False,
        )

    def finish_failed(
        self,
        i: int,
        attempts: int,
        seconds: float,
        kind: str,
        message: str,
        exc: Optional[BaseException],
        tb: str = "",
    ) -> None:
        from repro.telemetry import events as _events

        runner = self.runner
        failure = PointFailure(
            label=f"{self.label}[{i}]",
            key=self.keys[i],
            kind=kind,
            message=message,
            attempts=attempts,
            seconds=seconds,
            point_repr=stable_repr(self.points[i]),
            fn_repr=stable_repr(self.fn),
            traceback=tb,
        )
        runner.failures.append(failure)
        runner._count("failures", "failure_count")
        self._journal_append(failure.as_record())
        self.tally["failed"] += 1
        _events.emit(
            "point_end", label=failure.label, key=self.keys[i],
            status="failed", seconds=round(seconds, 6), attempts=attempts,
            cached=False, kind=kind, message=message,
        )
        if runner.on_failure == "raise" and self.first_exc is None:
            self.first_exc = exc if exc is not None else RuntimeError(
                f"{failure.label} {kind} after {attempts} attempt(s): {message}"
            )

    def attempt_failed(
        self,
        i: int,
        attempt: int,
        seconds: float,
        kind: str,
        message: str,
        exc: Optional[BaseException],
        tb: str = "",
    ) -> bool:
        """Account one failed attempt.  Returns True when the point has
        retries left -- the caller schedules the re-attempt after its
        backoff -- and False when the failure is final (recorded,
        journaled and counted here)."""
        from repro.telemetry import events as _events

        runner = self.runner
        if kind == "timeout":
            runner._count("timeouts", "timeout_count")
        elif kind == "crash":
            runner._count("crashes", "crash_count")
        elif kind == "stall":
            runner._count("stalls", "stall_count")
        if attempt <= runner.retries:
            runner._count("retries", "retry_count")
            self.tally["retries"] += 1
            _events.emit(
                "retry", label=f"{self.label}[{i}]", key=self.keys[i],
                attempt=attempt, kind=kind, message=message,
            )
            return True
        self.finish_failed(i, attempt, seconds, kind, message, exc, tb)
        return False
