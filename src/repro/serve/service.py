"""Design-space queries over the shared result store.

The paper's concluding claim -- xpipes Lite "allows faster & more
accurate design space exploration" -- as a *service* contract: a query
names an application (core graph), a candidate slice of the design
space and constraints/objective, and the engine answers it from the
content-addressed store when every point is already known (microseconds
-- no simulation, no synthesis models re-run), or evaluates exactly the
missing points through the work-stealing farm when not.

The key discipline is what makes this sound: a query expands to the
*same* ``(core_graph, fabric, width, depth, ...)`` combo tuples --
and therefore the same :func:`~repro.flow.keying.stable_repr` cache
keys -- that :func:`repro.flow.dse.explore_design_space` produces, so
the store populated by any past sweep, on any host, answers queries
here, and a query evaluated here accelerates everyone's next sweep.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.flow.dse import (
    DesignPoint,
    _evaluate_design_point,
    design_combos,
    design_rows,
    pareto_frontier,
    render_space,
)
from repro.flow.keying import Rendered, point_keys, stable_repr
from repro.flow.pool import WorkStealingDispatcher
from repro.flow.runner import ExperimentRunner
from repro.flow.taskgraph import CoreGraph, demo_multimedia_soc, demo_telecom_soc
from repro.network.topology import (
    Topology,
    fat_tree,
    fully_connected,
    hypercube,
    mesh,
    ring,
    spidergon,
    star,
    torus,
)
from repro.store import ResultStore


#: What one request may ask for (docs/SERVICE.md, "Request limits").
#: Constants, not settings: a request over any of them is a 400 before
#: anything is built, probed or farmed.  A body is at most 8 MiB; a
#: topology name may ask for at most this many switches (``mesh-32x32``
#: builds in ~10 ms; ``mesh-1000x1000`` took 28 s and rendered a 100 MB
#: key); a query may expand to at most this many points.
MAX_BODY_BYTES = 8 * 1024 * 1024
MAX_TOPOLOGY_SWITCHES = 1024
MAX_QUERY_POINTS = 4096


class QueryError(ValueError):
    """A malformed, oversized or unanswerable design-space query."""


class FarmUnavailable(RuntimeError):
    """The farm circuit is open and the caller declined degradation."""


class CircuitBreaker:
    """Classic three-state breaker over the farm dispatch path.

    ``closed`` (healthy): every call is allowed; ``failures``
    *consecutive* recorded failures trip it ``open``.  ``open``: calls
    are refused -- the engine answers degraded from the store instead
    of queueing more work onto a farm that is demonstrably down --
    until ``cooldown`` seconds pass.  Then the next :meth:`allow`
    admits exactly one **half-open probe**; its success closes the
    breaker (``circuit_close`` event), its failure re-opens it for
    another full cooldown.

    Transitions are emitted as ``circuit_open`` / ``circuit_close``
    events on the ``repro.telemetry.events`` plane and mirrored into a
    ``serve.circuit_open`` gauge (1 while open) when ``metrics`` is
    set.  The clock is injectable for tests.
    """

    def __init__(
        self,
        failures: int = 3,
        cooldown: float = 30.0,
        metrics: Optional[Any] = None,
        clock: Any = time.monotonic,
    ) -> None:
        if failures < 1:
            raise ValueError(f"failures must be >= 1, got {failures}")
        if cooldown <= 0:
            raise ValueError(f"cooldown must be positive seconds, got {cooldown}")
        self.failures = failures
        self.cooldown = cooldown
        self.metrics = metrics
        self.clock = clock
        self.state = "closed"  # closed | open | half-open
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.opens = 0
        self.closes = 0
        self.probes = 0
        self._gauge(0)

    def _gauge(self, value: int) -> None:
        if self.metrics is not None:
            self.metrics.gauge("serve.circuit_open").set(value)

    def blocking(self) -> bool:
        """True when a farm call would be refused *right now* -- open
        with the cooldown still running, or already probing half-open.
        A peek: never consumes the half-open probe slot."""
        if self.state == "half-open":
            return True
        if self.state != "open":
            return False
        return self.clock() - self.opened_at < self.cooldown

    def allow(self) -> bool:
        """May the caller dispatch to the farm?  In ``open`` state with
        the cooldown elapsed this admits (and consumes) the single
        half-open probe."""
        if self.state == "closed":
            return True
        if self.state == "open" and self.clock() - self.opened_at >= self.cooldown:
            self.state = "half-open"
            self.probes += 1
            return True
        return False

    def record_success(self) -> None:
        from repro.telemetry import events as _events

        if self.state != "closed":
            self.closes += 1
            _events.emit("circuit_close", probes=self.probes)
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_at = None
        self._gauge(0)

    def record_failure(self) -> None:
        from repro.telemetry import events as _events

        self.consecutive_failures += 1
        if self.state == "half-open" or (
            self.state == "closed"
            and self.consecutive_failures >= self.failures
        ):
            self.state = "open"
            self.opened_at = self.clock()
            self.opens += 1
            self._gauge(1)
            _events.emit(
                "circuit_open", failures=self.consecutive_failures,
                cooldown=self.cooldown,
            )
        elif self.state == "open":
            self.opened_at = self.clock()


#: Applications a query can name ("under this traffic").
CORE_GRAPHS = {
    "multimedia": lambda: demo_multimedia_soc()[2],
    "telecom": lambda: demo_telecom_soc()[2],
}

#: Objectives a query can optimize; each maps a DesignPoint to a cost.
OBJECTIVES = {
    "area": lambda p: p.area_mm2,  # "cheapest"
    "power": lambda p: p.power_mw,
    "latency": lambda p: p.latency_ns,
}

_GRID_FAMILIES = {"mesh": mesh, "torus": torus}
_COUNT_FAMILIES = {
    "ring": ring,
    "star": star,
    "spidergon": spidergon,
    "hypercube": hypercube,
    "fully_connected": fully_connected,
    "fat_tree": fat_tree,
}


def topology_from_name(name: str) -> Topology:
    """``"mesh-5x5"`` / ``"torus-3x3"`` / ``"star-4"`` /
    ``"hypercube-3"`` ... -> a fresh :class:`Topology`.

    Grid families take ``WxH``; the rest take one count.  The factory
    is what keys the cache (Topology.cache_token), so two queries
    naming the same topology hit the same records.

    The size is read off the name and refused above
    :data:`MAX_TOPOLOGY_SWITCHES` *before* anything is built: ``W*H``
    for a grid, the count otherwise -- except ``fully_connected-N``,
    charged its ``N*N/2`` links, because those are what its build time
    and key text grow with (N=1024: 1.5 s and 10 MB).
    """
    if not isinstance(name, str) or "-" not in name:
        raise QueryError(
            f"topology {name!r}: expected '<family>-<size>', e.g. 'mesh-5x5' "
            f"or 'star-4'"
        )
    family, _, size = name.partition("-")
    if family in _GRID_FAMILIES:
        factory, parts = _GRID_FAMILIES[family], size.partition("x")[::2]
    elif family in _COUNT_FAMILIES:
        factory, parts = _COUNT_FAMILIES[family], (size,)
    else:
        raise QueryError(
            f"topology {name!r}: unknown family {family!r} (know "
            f"{sorted(_GRID_FAMILIES | _COUNT_FAMILIES.keys())})"
        )
    try:
        dims = [int(part) for part in parts]
        asked = dims[0] ** 2 // 2 if family == "fully_connected" else math.prod(dims)
        if asked > MAX_TOPOLOGY_SWITCHES:
            raise ValueError(
                f"size {asked} exceeds the {MAX_TOPOLOGY_SWITCHES}-switch limit"
            )
        return factory(*dims)
    except (ValueError, TypeError) as exc:
        raise QueryError(f"topology {name!r}: {exc}") from None


def core_graph_from_name(name: str) -> CoreGraph:
    try:
        return CORE_GRAPHS[name]()
    except KeyError:
        raise QueryError(
            f"core graph {name!r}: know {sorted(CORE_GRAPHS)}"
        ) from None


def _built(kind: str, name: str) -> Any:
    """A fresh ``"core_graph"`` / ``"topology"`` object from its name."""
    return (core_graph_from_name if kind == "core_graph" else topology_from_name)(name)


@functools.lru_cache(maxsize=128)
def _rendered(kind: str, name: str) -> Rendered:
    """The :func:`~repro.flow.keying.stable_repr` text of the core
    graph / topology called ``name``.  Both are pure functions of their
    name, so a hit path that has met a name builds nothing: it keys
    (and validates) through this text.  Bounded, and holds only text:
    128 names of at most ~85 KB (``mesh-32x32``); the objects the farm
    path needs are built fresh by :meth:`QueryEngine.combos`."""
    return Rendered(stable_repr(_built(kind, name)))


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: Any) -> bool:
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


@dataclass(frozen=True)
class QuerySpec:
    """One design-space question, normalized.

    The sweep slice (``topologies`` x ``flit_widths`` x
    ``buffer_depths`` under ``core_graph``/``seed``/... ) defines which
    points are consulted; the constraints (``min_freq_mhz``,
    ``max_latency_ns``, ``max_area_mm2``, ``max_power_mw``) filter
    them; ``objective`` picks the winner among survivors.  "Cheapest
    5x5 config >= 800 MHz under multimedia traffic" is
    ``QuerySpec(core_graph="multimedia", topologies=("mesh-5x5",),
    min_freq_mhz=800, objective="area")``.
    """

    core_graph: str = "multimedia"
    topologies: Tuple[str, ...] = ("mesh-2x2",)
    flit_widths: Tuple[int, ...] = (16, 32, 64)
    buffer_depths: Tuple[int, ...] = (4, 6)
    target_freq_mhz: float = 1000.0
    max_radix: int = 8
    seed: int = 0
    anneal_iterations: int = 600
    min_freq_mhz: float = 0.0
    max_latency_ns: Optional[float] = None
    max_area_mm2: Optional[float] = None
    max_power_mw: Optional[float] = None
    objective: str = "area"

    def __post_init__(self) -> None:
        if self.core_graph not in CORE_GRAPHS:
            raise QueryError(
                f"core graph {self.core_graph!r}: know {sorted(CORE_GRAPHS)}"
            )
        if not self.topologies:
            raise QueryError("query needs at least one topology")
        if not self.flit_widths or not self.buffer_depths:
            raise QueryError("query needs flit_widths and buffer_depths")
        points = (
            len(self.topologies) * len(self.flit_widths) * len(self.buffer_depths)
        )
        if points > MAX_QUERY_POINTS:
            raise QueryError(
                f"query expands to {points} points, over the "
                f"{MAX_QUERY_POINTS}-point limit; split it"
            )
        for name in self.topologies:
            # Validates eagerly, building only a name not met before.
            # (A non-str cannot be a cache key: the builder names what
            # is wrong with it.)
            (_rendered if isinstance(name, str) else _built)("topology", name)
        # The evaluators' own bounds (repro.core.config), checked here so
        # a malformed value is the client's 400 and never a farm failure
        # that counts against the circuit breaker.
        for name, floor in (("flit_widths", 4), ("buffer_depths", 2)):
            for value in getattr(self, name):
                if not _is_int(value) or value < floor:
                    raise QueryError(
                        f"{name} must be integers >= {floor}, got {value!r}"
                    )
        for name in ("seed", "anneal_iterations", "max_radix"):
            if not _is_int(getattr(self, name)):
                raise QueryError(
                    f"{name} must be an integer, got {getattr(self, name)!r}"
                )
        for name, optional in (
            ("target_freq_mhz", False), ("min_freq_mhz", False),
            ("max_latency_ns", True), ("max_area_mm2", True),
            ("max_power_mw", True),
        ):
            value = getattr(self, name)
            if not (_is_real(value) or (optional and value is None)):
                raise QueryError(f"{name} must be a number, got {value!r}")
        if self.objective not in OBJECTIVES:
            raise QueryError(
                f"objective {self.objective!r}: know {sorted(OBJECTIVES)}"
            )

    def meets_constraints(self, p: DesignPoint) -> bool:
        if not p.feasible:
            return False
        if p.freq_mhz < self.min_freq_mhz:
            return False
        if self.max_latency_ns is not None and p.latency_ns > self.max_latency_ns:
            return False
        if self.max_area_mm2 is not None and p.area_mm2 > self.max_area_mm2:
            return False
        if self.max_power_mw is not None and p.power_mw > self.max_power_mw:
            return False
        return True


_TUPLE_FIELDS = {"topologies", "flit_widths", "buffer_depths"}


def parse_query(doc: Any) -> QuerySpec:
    """A JSON request body -> :class:`QuerySpec`, with named errors."""
    if not isinstance(doc, dict):
        raise QueryError(f"query must be a JSON object, got {type(doc).__name__}")
    known = {f.name for f in dataclasses.fields(QuerySpec)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise QueryError(f"unknown query fields {unknown}; know {sorted(known)}")
    kwargs: Dict[str, Any] = {}
    for name, value in doc.items():
        if name in _TUPLE_FIELDS:
            if isinstance(value, (str, int)):
                value = (value,)
            elif isinstance(value, list):
                value = tuple(value)
            else:
                raise QueryError(f"{name} must be a list, got {value!r}")
        kwargs[name] = value
    try:
        return QuerySpec(**kwargs)
    except TypeError as exc:
        raise QueryError(str(exc)) from None


_POINT_FIELDS = tuple(f.name for f in dataclasses.fields(DesignPoint))


def point_as_dict(p: DesignPoint) -> Dict[str, Any]:
    """``dataclasses.asdict`` for a :class:`DesignPoint`, whose fields
    are all scalars (no recursive copy: ~15 of these per answer)."""
    return {name: getattr(p, name) for name in _POINT_FIELDS}


@dataclass
class QueryResult:
    """One answered query: the winner, the frontier, and provenance.

    ``degraded`` marks an answer built from store hits alone while the
    farm circuit was open: the missing points were *not* computed, and
    ``hints`` names, for each of them, the nearest cached neighbor in
    the query's own grid (same topology preferred, then closest flit
    width and buffer depth) -- an honest partial answer instead of a
    5xx (docs/SERVICE.md, "Supervision & chaos testing").

    ``seconds`` is the wall time of :meth:`QueryEngine.answer`: the
    farm evaluation and selection that follow the store probe.
    """

    spec: QuerySpec
    points: List[DesignPoint]
    best: Optional[DesignPoint]
    frontier: List[DesignPoint]
    store_hits: int
    store_misses: int
    served_from: str  # "store" (pure hit) or "farm" (misses computed)
    seconds: float
    degraded: bool = False
    hints: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "query": dataclasses.asdict(self.spec),
            "best": None if self.best is None else point_as_dict(self.best),
            "frontier": [point_as_dict(p) for p in self.frontier],
            "points": [point_as_dict(p) for p in self.points],
            "feasible": sum(
                1 for p in self.points if self.spec.meets_constraints(p)
            ),
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "served_from": self.served_from,
            "seconds": round(self.seconds, 6),
            "degraded": self.degraded,
            "hints": self.hints,
        }

    def render(self) -> str:
        table = render_space(
            self.points, self.frontier,
            title=f"query over {self.spec.core_graph}",
        )
        if self.best is None:
            verdict = "no feasible point meets the constraints"
        else:
            verdict = f"best ({self.spec.objective}): {self.best.row().strip()}"
        suffix = ""
        if self.degraded:
            suffix = " [DEGRADED: farm circuit open, missing points hinted]"
        return (
            f"{table}\n{verdict}\n"
            f"served from {self.served_from}: {self.store_hits} hit(s), "
            f"{self.store_misses} miss(es), {self.seconds * 1e3:.1f} ms{suffix}"
        )


class QueryEngine:
    """Answer :class:`QuerySpec` questions over one shared store.

    Pure-hit queries never touch a simulator or synthesis model: every
    point is read (and sha256-verified) straight out of the
    :class:`~repro.store.ResultStore`.  Queries with missing points go
    through an :class:`~repro.flow.runner.ExperimentRunner` bound to
    the store with ``jobs=workers`` -- the supervised pool when
    ``workers > 1`` -- so the misses are computed once, published, and
    journaled like any sweep.

    The farm path is guarded by a :class:`CircuitBreaker` (one is
    constructed per engine unless injected): consecutive dispatch
    failures open it, after which misses are answered degraded from the
    store (see :meth:`answer`) until a half-open probe succeeds.
    """

    def __init__(
        self,
        store: ResultStore,
        workers: int = 2,
        timeout: Optional[float] = None,
        retries: int = 0,
        salt: str = "",
        metrics: Optional[Any] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.store = store
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.salt = salt
        self.metrics = metrics
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            metrics=metrics
        )
        self.queries = 0
        self.farm_queries = 0
        self.degraded_queries = 0
        #: Idle farms, each held open: a farm-bound :meth:`answer` pops
        #: one (or makes one) and pushes it back, so concurrent misses
        #: never share workers and sequential ones never re-fork them.
        self._farms: List[WorkStealingDispatcher] = []

    # -- farm lifetime ----------------------------------------------------
    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Stop and reap every kept worker.  The engine stays usable:
        the next miss forks its workers again."""
        while True:
            try:
                farm = self._farms.pop()
            except IndexError:
                return
            farm.__exit__()

    @property
    def farm_workers(self) -> int:
        """Live kept workers of the idle farms (``/healthz``)."""
        return sum(farm.live_workers for farm in list(self._farms))

    @contextlib.contextmanager
    def _farm(self, runner: ExperimentRunner) -> Iterator[Any]:
        """What a miss calls ``map_rows`` on: ``runner`` itself when it
        runs inline, else a kept farm pointed at it for this query."""
        if runner.jobs == 1:
            yield runner
            return
        try:
            farm = self._farms.pop()
        except IndexError:
            farm = WorkStealingDispatcher(runner, workers=runner.jobs).__enter__()
        farm.runner = runner
        before = farm.spawned
        try:
            yield farm
        finally:
            self._count("worker_spawns", farm.spawned - before)
            self._farms.append(farm)

    def _count(self, name: str, by: int = 1) -> None:
        if self.metrics is not None and by:
            self.metrics.counter(f"serve.{name}").inc(by)

    def make_runner(
        self, events_path: Optional[str] = None, jobs: int = 1
    ) -> ExperimentRunner:
        return ExperimentRunner(
            jobs=jobs,
            store=self.store,
            salt=self.salt,
            timeout=self.timeout,
            retries=self.retries,
            metrics=self.metrics,
            events_path=events_path,
        )

    # -- key discipline ---------------------------------------------------
    @staticmethod
    def _rows(spec: QuerySpec, make: Any) -> List[List[tuple]]:
        return design_rows(
            make("core_graph", spec.core_graph),
            [make("topology", name) for name in spec.topologies],
            spec.flit_widths, spec.buffer_depths, spec.target_freq_mhz,
            spec.max_radix, spec.seed, spec.anneal_iterations,
        )

    def combos(self, spec: QuerySpec) -> List[tuple]:
        """The combo tuples ``explore_design_space`` builds for this
        slice (same :func:`~repro.flow.dse.design_rows`, so the store
        keys are shared by construction) -- real objects, for the farm."""
        return [combo for row in self._rows(spec, _built) for combo in row]

    def keys(self, spec: QuerySpec) -> List[str]:
        """The store keys of :meth:`combos`, without building them: the
        same tuples over the *rendered text* of the graph and fabrics
        (:func:`_rendered`), which ``stable_repr`` passes through."""
        return point_keys(
            _evaluate_design_point,
            [combo for row in self._rows(spec, _rendered) for combo in row],
            self.salt,
        )

    # -- answering --------------------------------------------------------
    def lookup(
        self, spec: QuerySpec
    ) -> Tuple[List[Optional[DesignPoint]], List[int]]:
        """Probe the store only: ``(points, missing_indices)`` where
        ``points[i]`` is None exactly for the missing indices."""
        points: List[Optional[DesignPoint]] = []
        missing: List[int] = []
        for i, key in enumerate(self.keys(spec)):
            hit, value = self.store.get(key)
            points.append(value if hit else None)
            if not hit:
                missing.append(i)
        return points, missing

    # -- degraded answers -------------------------------------------------
    def _grid(self, spec: QuerySpec) -> List["tuple[str, int, int]"]:
        """The human-readable ``(topology, width, depth)`` triple for
        every combo index: the same cross product over the topology
        *names*, so it is in :meth:`combos` order by construction."""
        return [
            combo[1:4]
            for combo in design_combos(
                None, spec.topologies, spec.flit_widths, spec.buffer_depths
            )
        ]

    def neighbor_hints(
        self,
        spec: QuerySpec,
        points: List[Optional[DesignPoint]],
        missing: List[int],
    ) -> List[Dict[str, Any]]:
        """For each missing combo, the nearest *cached* combo in this
        query's own grid: same topology strongly preferred, then
        smallest log2 flit-width distance plus buffer-depth distance.
        Ties break on the lower combo index, so hints are
        deterministic.  With nothing cached at all, ``nearest`` is
        None."""
        grid = self._grid(spec)
        present = [j for j, p in enumerate(points) if p is not None]

        def distance(a: int, b: int) -> float:
            ta, wa, da = grid[a]
            tb, wb, db = grid[b]
            return (
                (0.0 if ta == tb else 1000.0)
                + abs(math.log2(wa) - math.log2(wb))
                + abs(da - db)
            )

        hints: List[Dict[str, Any]] = []
        for i in missing:
            name, width, depth = grid[i]
            hint: Dict[str, Any] = {
                "missing": {
                    "topology": name, "flit_width": width,
                    "buffer_depth": depth,
                },
                "nearest": None,
            }
            if present:
                j = min(present, key=lambda j: (distance(i, j), j))
                nname, nwidth, ndepth = grid[j]
                hint["nearest"] = {
                    "topology": nname, "flit_width": nwidth,
                    "buffer_depth": ndepth,
                    "point": point_as_dict(points[j]),
                }
            hints.append(hint)
        return hints

    def query(self, spec: QuerySpec, **kwargs: Any) -> QueryResult:
        """Probe the store, then :meth:`answer` (whose keywords these
        are)."""
        return self.answer(spec, *self.lookup(spec), **kwargs)

    def answer(
        self,
        spec: QuerySpec,
        points: List[Optional[DesignPoint]],
        missing: List[int],
        evaluate: bool = True,
        events_path: Optional[str] = None,
        degrade: bool = True,
    ) -> QueryResult:
        """Answer ``spec`` from one :meth:`lookup`'s ``(points,
        missing)`` -- the HTTP layer probes once, decides admission on
        ``missing`` and hands both here.  With ``evaluate=False`` a
        query with missing points raises :class:`QueryError` instead of
        computing.

        Missing points normally go through the farm, guarded by the
        circuit breaker: a dispatch failure is recorded, and once the
        breaker is open further queries are answered **degraded** --
        store hits only, ``degraded=True``, nearest-cached-neighbor
        ``hints`` for every missing combo -- instead of queueing work
        onto a farm that is known to be down.  ``degrade=False`` turns
        that into a :class:`FarmUnavailable` raise.
        """
        t0 = time.perf_counter()
        self.queries += 1
        self._count("queries")
        points = list(points)
        self._count("query_store_hits", len(points) - len(missing))
        self._count("query_store_misses", len(missing))
        served_from = "store"
        degraded = False
        hints: List[Dict[str, Any]] = []
        if missing:
            if not evaluate:
                raise QueryError(
                    f"{len(missing)} of {len(points)} points are not in the "
                    f"store and evaluate=False"
                )
            if self.breaker is not None and not self.breaker.allow():
                if not degrade:
                    raise FarmUnavailable(
                        f"farm circuit is open after "
                        f"{self.breaker.consecutive_failures} consecutive "
                        f"failures; retry after the "
                        f"{self.breaker.cooldown:g}s cooldown"
                    )
                degraded = True
                self.degraded_queries += 1
                self._count("degraded_queries")
                hints = self.neighbor_hints(spec, points, missing)
            else:
                served_from = "farm"
                self.farm_queries += 1
                self._count("farm_queries")
                # The runner is per query (its events path is the
                # job's, its reports must not pile up in a server); the
                # worker processes are the engine's.
                runner = self.make_runner(
                    events_path=events_path, jobs=self.workers
                )
                # One row per fabric, as in the sweep: the missing
                # points of a fabric are farmed as one task.
                wanted, index = set(missing), itertools.count()
                try:
                    with self._farm(runner) as farm:
                        computed = farm.map_rows(
                            _evaluate_design_point,
                            [[combo for combo in row if next(index) in wanted]
                             for row in self._rows(spec, _built)],
                            label="query",
                        )
                except Exception:
                    if self.breaker is not None:
                        self.breaker.record_failure()
                    raise
                if self.breaker is not None:
                    self.breaker.record_success()
                for i, p in zip(sorted(wanted), itertools.chain.from_iterable(computed)):
                    points[i] = p
                self._count("points_computed", len(missing))
        final: List[DesignPoint] = [p for p in points if p is not None]
        candidates = [p for p in final if spec.meets_constraints(p)]
        cost = OBJECTIVES[spec.objective]
        best = min(candidates, key=cost) if candidates else None
        return QueryResult(
            spec=spec,
            points=final,
            best=best,
            frontier=pareto_frontier(final),
            store_hits=len(points) - len(missing),
            store_misses=len(missing),
            served_from=served_from,
            seconds=time.perf_counter() - t0,
            degraded=degraded,
            hints=hints,
        )
