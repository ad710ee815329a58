"""Measurement methodology: warmed-up load sweeps.

The canonical NoC evaluation is the latency-vs-offered-load curve: run
open-loop traffic at increasing injection rates, discard a warmup
window, measure over a steady window, and watch latency diverge at the
saturation point.  This module packages that methodology so benches and
studies don't each reinvent (and mis-measure) it.

Sweeps decompose into independent measurements, and :func:`load_sweep`
has one body for them: every rate fans into ``replicas`` seed-varied
lanes (:func:`measure_load_point_lane`), the lanes are mapped, and each
rate's lanes reduce to one point -- the single-seed sweep is the
one-lane case, not a separate arm.  An optional
:class:`repro.flow.runner.ExperimentRunner` fans the lanes out over
worker processes and memoizes each on disk.  Everything passed to
the runner must be picklable and hashable; :class:`TopologyNocBuilder`
is the ready-made builder that satisfies both.  :func:`verify_fast_path`
is the cross-check mode for the kernel's schedulers: it runs the same
workload under each requested kernel (activity-tracked fast path,
classical interpreted loop, compiled codegen) and insists on
byte-identical statistics digests (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.flow.runner import RunManifest
from repro.network.noc import Noc, NocBuildConfig
from repro.network.topology import attach_round_robin
from repro.network.traffic import UniformRandomTraffic
from repro.sim.batch import SEED_STRIDE, mean_ci95
from repro.sim.kernel import KERNEL_MODES, SimulationError


@dataclass(frozen=True)
class LoadPoint:
    """One measured operating point of a load sweep."""

    offered_rate: float  # injection attempts per master per cycle
    accepted_rate: float  # completed transactions per cycle (whole NoC)
    mean_latency: float
    p95_latency: float
    completed: int
    #: Provenance (cache key, hit/miss, wall time, library version) --
    #: attached by :func:`load_sweep`, excluded from equality so cached
    #: and freshly computed points still compare equal.
    manifest: Optional[RunManifest] = field(default=None, compare=False)
    #: Replica lanes this point was reduced over (1 = a single seed, the
    #: historical behaviour; the metric fields are then raw, not means).
    replicas: int = 1
    #: Per-metric 95% confidence half-widths when ``replicas > 1``:
    #: ``{"accepted_rate": ..., "mean_latency": ..., "p95_latency": ...}``
    #: (see ``docs/BATCHING.md`` for the Student-t math).  Excluded from
    #: equality/hash like the manifest: it is derived, and a dict.
    ci95: Optional[dict] = field(default=None, compare=False)

    @property
    def saturated(self) -> bool:
        """Heuristic: queueing has blown latency past 4x the zero-load
        ballpark (set by the sweep when it builds the point)."""
        return self.mean_latency > 4 * max(self.p95_latency / 8.0, 1.0)


@dataclass(frozen=True)
class TopologyNocBuilder:
    """A picklable, hashable "build me a fresh core-less NoC" callable.

    ``load_sweep``'s inline loop accepts any zero-argument callable, but
    dispatching sweep points to worker processes (and keying the disk
    cache) needs a builder that pickles and hashes stably -- closures do
    neither.  This builder names a module-level topology factory plus
    its arguments instead of capturing objects.
    """

    factory: Callable  # e.g. repro.network.topology.mesh
    args: Tuple = ()
    n_initiators: int = 4
    n_targets: int = 4
    config: Optional[NocBuildConfig] = None

    def __call__(self) -> Noc:
        topo = self.factory(*self.args)
        attach_round_robin(topo, self.n_initiators, self.n_targets)
        return Noc(topo, config=self.config)


def attach_uniform_traffic(
    noc: Noc, rate: float, seed: int = 0, **populate_kwargs
) -> None:
    """Populate a core-less NoC with the standard workload: initiator
    ``i`` draws :class:`UniformRandomTraffic` at ``rate`` from its own
    seed (``seed`` plus a stride of 17 per initiator), every target gets
    a memory.  Every measurement and cross-check in the library attaches
    traffic through here, so their seeds agree (``populate_kwargs`` go
    to :meth:`Noc.populate`).
    """
    targets = noc.topology.targets
    noc.populate(
        {
            c: UniformRandomTraffic(targets, rate, seed=seed + 17 * i)
            for i, c in enumerate(noc.topology.initiators)
        },
        **populate_kwargs,
    )


def measure_load_point(
    build_noc: Callable[[], "Noc"],
    rate: float,
    warmup_cycles: int = 500,
    measure_cycles: int = 2000,
    max_outstanding: int = 4,
    seed: int = 0,
) -> LoadPoint:
    """Measure one offered-load point on a freshly built NoC.

    Module-level (not a closure) so an
    :class:`~repro.flow.runner.ExperimentRunner` can ship it to worker
    processes and hash its identity for the result cache.
    """
    if warmup_cycles < 0 or measure_cycles <= 0:
        raise ValueError("invalid warmup/measurement window")
    noc = build_noc()
    initiators = noc.topology.initiators
    if not initiators or not noc.topology.targets:
        raise ValueError("the built NoC must have initiators and targets")
    attach_uniform_traffic(noc, rate, seed, max_outstanding=max_outstanding)
    noc.run(warmup_cycles)
    # Snapshot, measure, diff: only steady-state samples count.
    warm_counts = {c: len(noc.masters[c].latency.samples) for c in initiators}
    noc.run(measure_cycles)
    samples: List[int] = []
    completed = 0
    for c in initiators:
        s = noc.masters[c].latency.samples[warm_counts[c]:]
        samples.extend(s)
        completed += len(s)
    if samples:
        samples.sort()
        mean = sum(samples) / len(samples)
        p95 = samples[min(len(samples) - 1, int(0.95 * len(samples)))]
    else:
        mean = float("inf")
        p95 = float("inf")
    return LoadPoint(
        offered_rate=rate,
        accepted_rate=completed / measure_cycles,
        mean_latency=mean,
        p95_latency=float(p95),
        completed=completed,
    )


def measure_load_point_lane(
    build_noc: Callable[[], "Noc"],
    rate_and_seed: Tuple[float, int],
    warmup_cycles: int = 500,
    measure_cycles: int = 2000,
    max_outstanding: int = 4,
) -> LoadPoint:
    """One replica lane of a load point: ``(rate, lane_seed)`` in.

    :func:`load_sweep` varies only the seed between a rate's lanes, and
    an :class:`~repro.flow.runner.ExperimentRunner` caches per *point*,
    so the seed must live inside the point -- this module-level
    unpacking wrapper is what gets fanned out and hashed.
    """
    rate, lane_seed = rate_and_seed
    return measure_load_point(
        build_noc,
        rate,
        warmup_cycles=warmup_cycles,
        measure_cycles=measure_cycles,
        max_outstanding=max_outstanding,
        seed=lane_seed,
    )


def _reduce_lanes(rate: float, lanes: Sequence[LoadPoint]) -> LoadPoint:
    """Reduce one rate's replica lanes to a mean point with 95% CIs,
    carrying lane 0's manifest (the other lanes' provenance lives in
    the runner's journal).  A single lane is the point itself, raw.

    Lanes that completed no transactions report infinite latency; they
    are excluded from the latency mean/CI (an all-empty rate stays
    ``inf``, matching the single-seed convention).
    """
    if len(lanes) == 1:
        return lanes[0]
    acc_mean, acc_half = mean_ci95([p.accepted_rate for p in lanes])
    finite_mean = [p.mean_latency for p in lanes if math.isfinite(p.mean_latency)]
    finite_p95 = [p.p95_latency for p in lanes if math.isfinite(p.p95_latency)]
    lat_mean, lat_half = mean_ci95(finite_mean) if finite_mean else (float("inf"), 0.0)
    p95_mean, p95_half = mean_ci95(finite_p95) if finite_p95 else (float("inf"), 0.0)
    return LoadPoint(
        offered_rate=rate,
        accepted_rate=acc_mean,
        mean_latency=lat_mean,
        p95_latency=p95_mean,
        completed=int(round(sum(p.completed for p in lanes) / len(lanes))),
        manifest=lanes[0].manifest,
        replicas=len(lanes),
        ci95={
            "accepted_rate": acc_half,
            "mean_latency": lat_half,
            "p95_latency": p95_half,
        },
    )


def _timed(fn: Callable, point) -> LoadPoint:
    """``fn(point)`` carrying a keyless, timed local manifest."""
    t0 = time.perf_counter()
    result = fn(point)
    manifest = RunManifest.local(key="", cached=False, seconds=time.perf_counter() - t0)
    return dataclasses.replace(result, manifest=manifest)


def load_sweep(
    build_noc: Callable[[], "Noc"],
    rates: Sequence[float],
    warmup_cycles: int = 500,
    measure_cycles: int = 2000,
    max_outstanding: int = 4,
    seed: int = 0,
    runner=None,
    replicas: int = 1,
) -> List[Optional[LoadPoint]]:
    """Latency/throughput at each offered load.

    ``build_noc`` must return a fresh, *core-less* NoC (topology wired,
    no masters/slaves attached); the sweep attaches uniform random
    traffic at each rate, warms up, then measures only transactions
    issued inside the measurement window.

    One body: every rate fans into ``replicas`` lanes ``(rate, seed +
    k * SEED_STRIDE)``, the lanes are measured
    (:func:`measure_load_point_lane`), and each rate's lanes reduce to
    one point.  With one lane -- the default -- that point is the raw
    single-seed measurement; with more it is their mean, carrying
    per-metric 95% confidence half-widths in ``point.ci95`` (see
    ``docs/BATCHING.md``).

    With a ``runner`` (an :class:`repro.flow.runner.ExperimentRunner`),
    the lanes run through it -- possibly in parallel, possibly from
    cache -- in which case ``build_noc`` must be picklable (use
    :class:`TopologyNocBuilder`, not a lambda).  Lanes cache
    independently, so growing ``replicas`` reuses the lanes already on
    disk, lane 0 of a multi-lane sweep being the one-lane sweep's point.
    A rate with a lane that failed under ``on_failure="record"`` comes
    back as ``None``, as ``runner.map`` reports it.

    Every returned point carries a
    :class:`~repro.flow.runner.RunManifest` in ``point.manifest``
    recording where the number came from: with a runner, lane 0's own
    cache key plus hit/miss and compute seconds; inline, a keyless
    timed record.
    """
    if warmup_cycles < 0 or measure_cycles <= 0:
        raise ValueError("invalid warmup/measurement window")
    if replicas < 1:
        raise ValueError("load_sweep needs replicas >= 1")
    rates = list(rates)
    fn = functools.partial(
        measure_load_point_lane,
        build_noc,
        warmup_cycles=warmup_cycles,
        measure_cycles=measure_cycles,
        max_outstanding=max_outstanding,
    )
    fanned = [
        (rate, seed + k * SEED_STRIDE) for rate in rates for k in range(replicas)
    ]
    if runner is None:
        lanes = [_timed(fn, point) for point in fanned]
    else:
        lanes = runner.attach_manifests(
            fn, fanned, runner.map(fn, fanned, label="load_sweep")
        )
    groups = [lanes[i * replicas:(i + 1) * replicas] for i in range(len(rates))]
    return [
        None if any(p is None for p in group) else _reduce_lanes(rate, group)
        for rate, group in zip(rates, groups)
    ]


def verify_fast_path(
    build_noc: Callable[[], "Noc"],
    cycles: int = 2000,
    rate: float = 0.2,
    max_outstanding: int = 4,
    seed: int = 0,
    attach: Optional[Callable[["Noc"], None]] = None,
    kernels: Sequence[str] = KERNEL_MODES,
    max_transactions: Optional[int] = None,
) -> str:
    """Cross-check the simulator's scheduler modes against each other.

    Builds the same core-less NoC once per entry in ``kernels``,
    attaches identical traffic, runs each instance for ``cycles`` under
    its kernel, and compares their
    :meth:`~repro.network.noc.Noc.stats_digest`.  Raises
    :class:`~repro.sim.kernel.SimulationError` on any divergence and
    returns the (common) digest otherwise.  The default is the full
    three-way proof over :data:`~repro.sim.kernel.KERNEL_MODES`: the
    generated loop with and without specialized lanes against the
    hand-written reference loop.

    ``attach``, when given, is called on each freshly built NoC before
    traffic is populated -- the hook fault campaigns use to arm a
    :class:`~repro.faults.FaultInjector` on every instance and prove the
    quiescence contract holds while fault windows open and close.
    ``max_transactions`` bounds each master (the Monte-Carlo episode
    shape whose idle tail the generated loop collapses; see
    docs/PERFORMANCE.md, "Idle spans").
    """
    if len(kernels) < 2:
        raise ValueError(f"need at least two kernels to compare, got {kernels!r}")
    digests = {}
    for kern in kernels:
        noc = build_noc()
        noc.sim.set_kernel(kern)
        if attach is not None:
            attach(noc)
        attach_uniform_traffic(
            noc, rate, seed, max_outstanding=max_outstanding,
            max_transactions=max_transactions,
        )
        noc.run(cycles)
        digests[kern] = noc.stats_digest()
    want = digests[kernels[0]]
    for kern, got in digests.items():
        if got != want:
            raise SimulationError(
                f"kernel divergence after {cycles} cycles: "
                f"{kernels[0]}={want[:16]}... {kern}={got[:16]}..."
            )
    return want


def verify_checkpoint(
    build_noc: Callable[[], "Noc"],
    snapshot_at: int = 500,
    cycles: int = 2000,
    rate: float = 0.2,
    max_outstanding: int = 4,
    seed: int = 0,
    attach: Optional[Callable[["Noc"], None]] = None,
    kernel: str = "compiled",
    restore_kernel: Optional[str] = None,
) -> str:
    """Cross-check snapshot/restore against an uninterrupted run.

    Builds the same core-less NoC twice with identical traffic.  The
    reference instance runs ``cycles`` straight through; the second
    runs to ``snapshot_at``, snapshots, and the snapshot is restored
    into a *third* freshly built instance which runs the remaining
    cycles.  Raises :class:`~repro.sim.kernel.SimulationError` if the
    restored run's :meth:`~repro.network.noc.Noc.stats_digest` diverges
    from the reference; returns the (common) digest otherwise.

    ``kernel`` names the scheduler mode; ``restore_kernel``, when
    given, runs the *restored* instance under a different mode than the
    one that took the snapshot -- the cross-kernel restore proof
    (snapshots are kernel-agnostic; see ``docs/CHECKPOINT.md``).  The
    reference still runs entirely under ``kernel``: mode equivalence is
    :func:`verify_fast_path`'s job, so a divergence seen here indicts
    checkpointing specifically.

    ``attach`` plays the same role as in :func:`verify_fast_path`:
    called on every freshly built NoC before traffic is populated, so
    fault campaigns can arm an identical
    :class:`~repro.faults.FaultInjector` on each instance -- including
    windows that are *open* at ``snapshot_at``.
    """
    if not 0 < snapshot_at < cycles:
        raise ValueError(
            f"need 0 < snapshot_at < cycles, got {snapshot_at} / {cycles}"
        )

    def build(kern=kernel):
        noc = build_noc()
        noc.sim.set_kernel(kern)
        if attach is not None:
            attach(noc)
        attach_uniform_traffic(noc, rate, seed, max_outstanding=max_outstanding)
        return noc

    reference = build()
    reference.run(cycles)
    want = reference.stats_digest()

    donor = build()
    donor.run(snapshot_at)
    snap = donor.sim.snapshot()

    restored = build(restore_kernel if restore_kernel is not None else kernel)
    restored.sim.restore(snap)
    restored.run(cycles - snapshot_at)
    got = restored.stats_digest()
    if got != want:
        raise SimulationError(
            f"checkpoint divergence: restore at cycle {snapshot_at} then "
            f"run to {cycles} gave {got[:16]}..., uninterrupted run gave "
            f"{want[:16]}..."
        )
    return got


def saturation_rate(points: Sequence[LoadPoint], knee_factor: float = 3.0) -> Optional[float]:
    """First offered rate whose mean latency exceeds ``knee_factor`` x
    the lowest-load latency; ``None`` if the sweep never saturates."""
    if not points:
        return None
    base = points[0].mean_latency
    for p in points:
        if p.mean_latency > knee_factor * base:
            return p.offered_rate
    return None


def render_sweep(points: Sequence[LoadPoint], title: str = "load sweep") -> str:
    with_ci = any(p.ci95 for p in points)
    header = f"{'offered':>8} {'accepted':>9} {'mean lat':>9} {'p95 lat':>8}"
    if with_ci:
        header += f" {'+-lat95':>8} {'lanes':>6}"
    lines = [title, header]
    for p in points:
        row = (
            f"{p.offered_rate:>8.3f} {p.accepted_rate:>9.3f} "
            f"{p.mean_latency:>9.1f} {p.p95_latency:>8.0f}"
        )
        if with_ci:
            half = (p.ci95 or {}).get("mean_latency", 0.0)
            row += f" {half:>8.1f} {p.replicas:>6d}"
        lines.append(row)
    return "\n".join(lines)
