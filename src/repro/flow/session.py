"""The plain records of a map and the session that keeps them.

:class:`MapSession` is the bookkeeping of one
:meth:`~repro.flow.runner.ExperimentRunner.map_rows` call -- keys and
cache probing, results, manifests, events, retry accounting -- shared
by the inline scheduler and the pool (:mod:`repro.flow.pool`);
:class:`RunManifest`, :class:`PointReport` and :class:`PointFailure`
are what it records.  This module imports
neither the pool nor the store, so the simulator can carry a
:class:`RunManifest` in its results (``LoadPoint.manifest``) without
loading ``multiprocessing``, and the pool imports the session at
module level.  :mod:`repro.flow.runner` re-exports every name.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro import __version__
from repro.flow.keying import CACHE_VERSION, check_keyable_fn, point_keys, stable_repr

if TYPE_CHECKING:
    from repro.flow.runner import ExperimentRunner
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
    isolation (``runner.map(fn, [the_point])``).  The failed
    ``point_end`` event carries them as ``point`` and ``fn``
    (:meth:`as_record`).
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
        """The JSON fields of this failure's ``point_end`` event."""
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


class MapSession:
    """Bookkeeping for one batch of points, shared across schedulers.

    Inline execution (``jobs=1``) and the pool
    (:class:`repro.flow.pool.WorkStealingDispatcher`) schedule work
    very differently -- a loop in this process vs. long-lived workers
    pulling from shards -- but everything *around* the scheduling is
    identical and lives here: cache keys and cache probing, the streamed
    store accounting and manifest updates as points finish, retry
    accounting, the telemetry event stream -- whose ``point_end``
    records are the one on-disk log of every outcome -- and the
    deferred first-failure re-raise.
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
        from repro.telemetry.events import EVENTS_BASENAME

        runner = self.runner
        if runner.events_path is not None:
            return runner.events_path
        if runner.store is not None:
            return os.path.join(runner.store.root, EVENTS_BASENAME)
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
        self.runner.last_manifests = [m for m in self.manifests if m is not None]
        if self.first_exc is not None:
            raise self.first_exc
        results = self.results
        return [[results[i] for i in row] for row in self.rows]

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
        self.tally["failed"] += 1
        _events.emit("point_end", cached=False, **failure.as_record())
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
        logged and counted here)."""
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
