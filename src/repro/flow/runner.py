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
  the ``events.jsonl`` stream;
* **resiliently**: per-point wall-clock ``timeout``, bounded ``retries``
  with exponential backoff, and one ``point_end`` event recording every
  completion and failure.  Results stream into the store and events
  *as points finish*, so killing a sweep mid-flight loses none
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
import pickle
import time
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.flow.keying import (  # noqa: F401 -- the keying names' old home
    CACHE_VERSION,
    check_keyable_fn,
    point_key,
    point_keys,
    stable_repr,
)
from repro.flow.pool import WorkStealingDispatcher
from repro.flow.session import (  # noqa: F401 -- the session names' old home
    BACKOFF_JITTER,
    FAILURE_KINDS,
    MapSession,
    PointFailure,
    PointReport,
    RunManifest,
)
from repro.store import cas


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
        also hosts ``events.jsonl``.
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
        completed siblings are cached and logged), re-raise the
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

        Completed points are cached and logged the moment they
        finish, *before* the batch ends -- a killed sweep loses nothing
        already done.  A failing point (exception, timeout, or worker
        death) is retried up to ``retries`` times with exponential
        backoff; a point that exhausts its attempts becomes a
        :class:`PointFailure` and, under ``on_failure="raise"``, the
        first failure is re-raised only after every sibling has
        finished.

        The bookkeeping (cache probing, manifests, event stream, retry
        accounting) lives in :class:`MapSession`; only
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


