"""Batched Monte-Carlo simulation: replica lanes over one compiled network.

Fault campaigns and load sweeps need *many* independent replicas per
design point before their BER/latency curves mean anything -- the same
statistical-confidence argument MultiNoC makes for multiprocessor NoC
evaluation.  Building a fresh NoC per replica pays elaboration plus
codegen (milliseconds) per seed.  This module adds the replica
dimension on top of the compiled kernel (:mod:`repro.sim.compiled`):

* **One elaboration, R lanes.**  :class:`BatchSimulator` compiles the
  network once and reuses the object graph and the generated program
  for every lane.  Component ``reset`` methods mutate their
  codegen-bound containers in place (lists, deques, samplers), so
  ``Simulator.reset()`` re-arms a lane without invalidating the
  program -- ``tests/test_batch.py`` proves reset-and-rerun digests
  equal a fresh build's.
* **Structure-of-arrays where it is sound.**  Per-lane seeds and every
  collected metric live in numpy arrays with a leading ``n_replicas``
  axis (:class:`BatchResult`), reduced to mean +/- 95% confidence
  intervals by :func:`mean_ci95`.  The *register file itself* stays the
  single compiled object graph: wires carry arbitrary Python payloads
  (flits, OCP transactions), which is why PR 6 rejected a vectorized
  register lane -- lanes are therefore time-multiplexed, not
  vector-parallel, and the batch win is amortized elaboration, not
  SIMD.  numpy is imported by the functions that build or reduce those
  arrays, not by this module, so a process that never batches (every
  sweep, serve and scalar build path imports this module) never loads
  it.
* **No loop of its own.**  :meth:`BatchSimulator.run_exact` is
  ``sim.run``: the long quiet tail of a bounded Monte-Carlo episode
  (``max_transactions``) is collapsed by the generated loop itself --
  for a lane exactly as for a scalar run, see "Idle spans" in
  :func:`repro.sim.compiled._generate` -- so a lane is digest- and
  counter-identical to the scalar kernels by construction.
* **Deterministic seeding.**  Lane ``k`` offsets every traffic-pattern
  and link seed by ``k * seed_stride``; lane 0 runs the exact seeds the
  network was built with, so its digest matches a scalar run
  bit-for-bit (``verify_fast_path`` cross-checks it in
  ``bench_s4_batch``).

Scalar is the one-lane case: ``repro.faults.run_campaign`` always runs
through a :class:`BatchSimulator` (``replicas`` defaulting to 1).  A
batch is one point: it is never checkpointed mid-flight, and a killed
one is simply run again (see docs/CHECKPOINT.md).

See ``docs/BATCHING.md`` for the full contract and
``benchmarks/bench_s4_batch.py`` for the measured speedup.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.kernel import SimulationError, Simulator

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BatchSimulator",
    "BatchResult",
    "mean_ci95",
    "summarize",
    "run_batch",
]

#: Default per-lane seed offset.  Prime and far larger than any
#: per-master ``+ 17 * i`` / per-link ``+ 2 * j`` construction offset,
#: so lane streams never collide.
SEED_STRIDE = 1_000_003

# Two-sided 95% Student-t quantiles for df = 1..30; z beyond.  Inlined
# so the CI math needs numpy only (no scipy in the image).
_T95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
    2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
    2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
    2.048, 2.045, 2.042,
)
_Z95 = 1.960


def t_quantile_95(df: int) -> float:
    """Two-sided 95% Student-t quantile (normal beyond df=30)."""
    if df < 1:
        raise ValueError("t quantile needs df >= 1")
    return _T95[df - 1] if df <= len(_T95) else _Z95


def mean_ci95(values: Sequence[float]) -> Tuple[float, float]:
    """``(mean, half_width)`` of a two-sided 95% CI on the mean.

    Student-t for small samples (df = n-1 <= 30), normal beyond.  A
    single observation has no spread estimate: half-width 0.0.  NaNs
    (e.g. "no latency samples in this lane") are dropped before
    reduction; an all-NaN input reduces to ``(nan, 0.0)``.
    """
    import numpy as np

    arr = np.asarray(list(values), dtype=np.float64)
    arr = arr[~np.isnan(arr)]
    n = int(arr.size)
    if n == 0:
        return float("nan"), 0.0
    mean = float(arr.mean())
    if n < 2:
        return mean, 0.0
    half = t_quantile_95(n - 1) * float(arr.std(ddof=1)) / math.sqrt(n)
    return mean, half


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """The standard reduction attached to every batched metric:
    ``{"mean", "ci95", "n"}`` (see docs/BATCHING.md for the math)."""
    import numpy as np

    mean, half = mean_ci95(values)
    arr = np.asarray(list(values), dtype=np.float64)
    return {"mean": mean, "ci95": half, "n": int((~np.isnan(arr)).sum())}


class BatchResult:
    """Structure-of-arrays metrics for one batched run.

    ``seeds`` is the ``(n_replicas,)`` int64 array of per-lane seed
    offsets; each collected metric is a ``(n_replicas,)`` float64 array
    under its name in ``metrics``.  ``reduced`` maps the same names to
    ``{"mean", "ci95", "n"}`` dicts.
    """

    __slots__ = ("replicas", "seeds", "metrics", "reduced", "digests")

    def __init__(self, replicas: int, seeds: np.ndarray,
                 metrics: Dict[str, np.ndarray],
                 digests: Optional[List[str]] = None) -> None:
        self.replicas = replicas
        self.seeds = seeds
        self.metrics = metrics
        self.digests = digests
        self.reduced: Dict[str, Dict[str, float]] = {
            name: summarize(arr) for name, arr in metrics.items()
        }

    def __repr__(self) -> str:
        names = ", ".join(sorted(self.metrics))
        return f"BatchResult(replicas={self.replicas}, metrics=[{names}])"


class BatchSimulator:
    """Run ``replicas`` seed-varied lanes over one compiled network.

    Drive it either through :meth:`run_lanes` (whole lanes, one
    callback per finished lane) or manually::

        batch = BatchSimulator(noc, replicas=256)
        for k in range(batch.replicas):
            batch.begin_lane(k)
            batch.run_exact(horizon)     # == noc.sim.run(horizon)
            collect(noc)

    ``begin_lane(k)`` reseeds every traffic pattern and link to its
    construction seed plus ``k * seed_stride`` and resets the simulator
    *without* invalidating the compiled program; lane 0 is therefore
    bit-identical to a scalar run of the network as built.  Per-lane
    fault schedules go through ``lane_windows`` (a callable
    ``k -> Sequence[FaultWindow]``), applied via
    :meth:`~repro.faults.injector.FaultInjector.set_windows`, on any
    of the network's links.
    """

    def __init__(
        self,
        noc,
        replicas: int,
        *,
        seed_stride: int = SEED_STRIDE,
        lane_windows: Optional[Callable[[int], Sequence]] = None,
    ) -> None:
        import numpy as np

        if replicas < 1:
            raise SimulationError("a batch needs at least one replica lane")
        self.noc = noc
        self.replicas = int(replicas)
        self.seed_stride = int(seed_stride)
        self.lane_windows = lane_windows
        sim: Simulator = noc.sim
        #: The shared generated program (the batch switches the
        #: simulator to the ``"compiled"`` mode).
        self.program = sim.compile()
        #: ``(n_replicas,)`` int64 seed offsets -- the SoA seed axis.
        self.seeds = (
            np.arange(self.replicas, dtype=np.int64) * self.seed_stride
        )
        # Construction-time seeds, restored per lane with the offset.
        self._pattern_seeds = [
            (m.pattern, m.pattern._seed)
            for m in noc.masters.values()
            if hasattr(m.pattern, "_seed")
        ]
        self._link_seeds = [(link, link._seed) for link in noc.links]
    # -- lane control ------------------------------------------------------

    def begin_lane(self, k: int) -> None:
        """Reseed and reset the network for replica lane ``k``."""
        if not 0 <= k < self.replicas:
            raise SimulationError(
                f"lane {k} out of range for a {self.replicas}-replica batch"
            )
        off = k * self.seed_stride
        for pattern, seed0 in self._pattern_seeds:
            pattern._seed = seed0 + off
        for link, seed0 in self._link_seeds:
            link._seed = seed0 + off
        # Component resets rebuild RNGs from the (re)assigned seeds and
        # clear codegen-bound containers in place.
        self.noc.sim.reset()
        if self.lane_windows is not None:
            for inj in getattr(self.noc, "fault_injectors", ()):
                inj.set_windows(self.lane_windows(k))

    def run_exact(self, cycles: int) -> None:
        """Advance the current lane exactly ``cycles`` cycles.

        Plain ``sim.run`` (which rejects a negative count): the
        generated loop collapses idle spans itself
        (:mod:`repro.sim.compiled`), for a lane exactly as for a scalar
        run.
        """
        self.noc.sim.run(cycles)

    # -- whole-batch convenience ------------------------------------------

    def run_lanes(
        self,
        cycles: int,
        collect: Callable[[Any, int], Dict[str, float]],
        *,
        digest: bool = False,
    ) -> BatchResult:
        """Run every lane for ``cycles`` cycles and reduce the metrics.

        ``collect(noc, lane)`` returns one ``{metric: value}`` dict per
        finished lane; the values are stacked into ``(n_replicas,)``
        arrays and reduced to mean +/- 95% CI.  ``digest=True``
        additionally records every lane's ``stats_digest()``.
        """
        rows: List[Dict[str, float]] = []
        digests: List[str] = [] if digest else None
        profiler = getattr(self.noc.sim, "profiler", None)
        for k in range(self.replicas):
            self.begin_lane(k)
            t0 = time.perf_counter() if profiler is not None else 0.0
            self.run_exact(cycles)
            if profiler is not None:
                # Attribute this replica lane's wall time so a batched
                # profile separates lane cost from per-component cost.
                profiler.record_replica(k, cycles, time.perf_counter() - t0)
            rows.append(collect(self.noc, k))
            if digest:
                digests.append(self.noc.stats_digest())
        import numpy as np

        names = sorted({name for row in rows for name in row})
        metrics = {
            name: np.array(
                [row.get(name, float("nan")) for row in rows],
                dtype=np.float64,
            )
            for name in names
        }
        return BatchResult(
            replicas=self.replicas,
            seeds=self.seeds.copy(),
            metrics=metrics,
            digests=digests,
        )


def run_batch(
    builder,
    replicas: int,
    cycles: int,
    collect: Callable[[Any, int], Dict[str, float]],
    *,
    seed_stride: int = SEED_STRIDE,
    lane_windows: Optional[Callable[[int], Sequence]] = None,
    digest: bool = False,
) -> BatchResult:
    """Build ``builder()`` once, batch it, run every lane, reduce.

    The one-call entry point used by the benchmarks: equivalent to
    constructing a :class:`BatchSimulator` and calling
    :meth:`~BatchSimulator.run_lanes`.
    """
    noc = builder()
    batch = BatchSimulator(
        noc, replicas, seed_stride=seed_stride, lane_windows=lane_windows
    )
    return batch.run_lanes(cycles, collect, digest=digest)
