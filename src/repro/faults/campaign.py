"""Fault campaigns: resilience measurement as a repeatable experiment.

A campaign is "run this workload on this NoC while this fault schedule
plays out, and report what survived": accepted traffic, latency of what
completed, how many transactions were retried or reported lost, and
whether the network ever stopped making progress (caught by the
:class:`~repro.faults.watchdog.ProgressWatchdog` rather than hanging
the simulation).

There is one measurement body, :func:`run_campaign`: N seed-varied
replica lanes over one build (a
:class:`~repro.sim.batch.BatchSimulator`), N defaulting to 1.  The
plain single-seed campaign is the one-lane case -- same loop, same
watchdog, same checkpoint format -- and more lanes reduce to means with
95% confidence intervals (see docs/BATCHING.md).

Specs are frozen dataclasses and :func:`run_campaign` is a module-level
function, so campaigns plug into
:class:`repro.flow.runner.ExperimentRunner` for process-parallel,
disk-cached execution exactly like load sweeps do -- ``FaultCampaign``
is the convenience wrapper, and ``python -m repro faults`` the CLI.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.injector import FaultInjector, FaultWindow
from repro.faults.watchdog import NoProgressError, ProgressWatchdog
from repro.flow.keying import stable_repr
from repro.flow.runner import ExperimentRunner, RunManifest
from repro.network.experiments import TopologyNocBuilder, attach_uniform_traffic
from repro.sim.batch import SEED_STRIDE, BatchSimulator, mean_ci95
from repro.sim.snapshot import SimSnapshot, SnapshotError
from repro.telemetry import events as _events


@dataclass(frozen=True)
class CampaignSpec:
    """One fault-campaign run, fully described (picklable, hashable)."""

    builder: TopologyNocBuilder
    windows: Tuple[FaultWindow, ...] = ()
    rate: float = 0.05
    warmup_cycles: int = 200
    measure_cycles: int = 2000
    max_outstanding: int = 4
    seed: int = 0
    #: Arm a ProgressWatchdog with this horizon; ``None`` disables
    #: (the campaign then relies on NI timeouts alone).
    watchdog_horizon: Optional[int] = 2000
    label: str = ""

    def cache_token(self) -> str:
        """Opt into ExperimentRunner disk caching (see stable_repr)."""
        return "CampaignSpec"


@dataclass(frozen=True)
class CampaignResult:
    """What one campaign run observed."""

    label: str
    offered_rate: float
    cycles_run: int
    issued: int
    completed: int
    failed: int  # transactions reported lost (SResp.ERR)
    retried: int
    accepted_rate: float  # completed transactions per cycle, post-warmup
    mean_latency: float
    p95_latency: float
    errors_injected: int
    flits_dropped: int
    retransmissions: int
    windows_opened: int
    no_progress: bool = False
    no_progress_cycle: int = -1
    diagnosis: str = ""
    manifest: Optional[RunManifest] = field(default=None, compare=False)
    #: Replica lanes this result was reduced over (1 = a single seed,
    #: the historical behaviour; the metric fields are then raw).
    replicas: int = 1
    #: 95% confidence half-widths when ``replicas > 1``:
    #: ``{"accepted_rate": ..., "mean_latency": ..., "p95_latency": ...}``
    #: (Student-t; see docs/BATCHING.md).  Derived and dict-valued, so
    #: excluded from equality/hash like the manifest.
    ci95: Optional[Dict[str, float]] = field(default=None, compare=False)
    #: The raw per-lane values behind the means, keyed by metric name --
    #: kept so figures can plot distributions, excluded from equality.
    lane_metrics: Optional[Dict[str, Tuple[float, ...]]] = field(
        default=None, compare=False
    )


def _latency_stats(samples: Sequence[int]) -> Tuple[float, float]:
    if not samples:
        return 0.0, 0.0
    ordered = sorted(samples)
    mean = sum(ordered) / len(ordered)
    p95 = ordered[min(len(ordered) - 1, int(0.95 * (len(ordered) - 1)))]
    return mean, float(p95)


def campaign_checkpoint_path(
    spec: CampaignSpec, checkpoint_dir: str, replicas: int = 1
) -> str:
    """Where a campaign's mid-run checkpoint lives.

    Keyed by the sha256 of ``stable_repr(spec)``, so the same spec
    always finds its own checkpoint and different specs never collide;
    ``replicas > 1`` appends ``-r<N>``, because runs over different
    lane counts compute different things and must never adopt each
    other's state.
    """
    digest = hashlib.sha256(stable_repr(spec).encode()).hexdigest()
    suffix = f"-r{replicas}" if replicas > 1 else ""
    return os.path.join(checkpoint_dir, f"campaign-{digest[:16]}{suffix}.ckpt")


def _build_campaign_noc(spec: CampaignSpec):
    """Deterministically rebuild the campaign's NoC + injector.

    Called both for a fresh run and before restoring a checkpoint: the
    snapshot layer stores state only, so restore needs a structurally
    identical simulator (see docs/CHECKPOINT.md)."""
    noc = spec.builder()
    injector = FaultInjector(noc, spec.windows)
    attach_uniform_traffic(
        noc, spec.rate, seed=spec.seed, max_outstanding=spec.max_outstanding
    )
    return noc, injector


#: Integer-valued metrics of a lane (a reduced result rounds their mean).
_COUNT_METRICS = (
    "cycles_run", "issued", "completed", "failed", "retried",
    "errors_injected", "flits_dropped", "retransmissions", "windows_opened",
)
#: The headline three: a reduced result carries their mean and 95% CI.
_CI_METRICS = ("accepted_rate", "mean_latency", "p95_latency")
#: Numeric metrics published per lane (``lane_metrics``, ``lane_batch``).
_LANE_METRICS = _COUNT_METRICS + _CI_METRICS + ("no_progress",)
#: Warm-up accounting at the start of a lane (checkpoint extras).
_COLD = {"warm_completed": 0, "warm_samples": 0, "warm_captured": False}


def _reduce(spec: CampaignSpec, rows: Sequence[dict]) -> CampaignResult:
    """Reduce the lanes' rows to one result: means, with 95% CIs and the
    raw columns attached when there is more than one lane (the mean of
    one lane is that lane, exactly)."""

    def col(name: str) -> Tuple[float, ...]:
        return tuple(float(r[name]) for r in rows)

    ci = {name: mean_ci95(col(name)) for name in _CI_METRICS}
    first_trip = next((r for r in rows if r["no_progress"]), None)
    replicated = len(rows) > 1
    return CampaignResult(
        label=spec.label or f"rate={spec.rate}",
        offered_rate=spec.rate,
        **{
            name: int(round(sum(col(name)) / len(rows)))
            for name in _COUNT_METRICS
        },
        **{name: mean for name, (mean, _) in ci.items()},
        no_progress=first_trip is not None,
        no_progress_cycle=(
            int(first_trip["no_progress_cycle"]) if first_trip else -1
        ),
        diagnosis=first_trip["diagnosis"] if first_trip else "",
        replicas=len(rows),
        ci95=(
            {name: half for name, (_, half) in ci.items()} if replicated else None
        ),
        lane_metrics=(
            {name: col(name) for name in _LANE_METRICS} if replicated else None
        ),
    )


def run_campaign(
    spec: CampaignSpec,
    replicas: int = 1,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> CampaignResult:
    """Build, fault, run and measure one campaign over ``replicas``
    seed-varied lanes (module-level so ExperimentRunner worker
    processes can pickle it).

    The NoC is built and compiled **once** (a
    :class:`~repro.sim.batch.BatchSimulator`); lane ``k`` reruns the
    identical fault schedule with every traffic and link seed offset by
    ``k * SEED_STRIDE``, and lane 0 uses the spec's own seeds.  One
    lane -- the default -- is the plain single-seed campaign: its
    result is that lane's raw measurements (``ci95`` and
    ``lane_metrics`` are ``None``).  More lanes reduce to a single
    :class:`CampaignResult` of means carrying per-metric 95% confidence
    half-widths in ``ci95`` and the raw per-lane columns in
    ``lane_metrics``; a lane whose watchdog trips still contributes its
    truncated measurements, and the first trip's cycle/diagnosis
    surface on the reduced result.

    With ``checkpoint_every`` and ``checkpoint_dir`` set, every lane is
    sliced at checkpoint boundaries -- slicing is cycle-identical to
    one long run -- and after each slice the in-flight lane's simulator
    state is written with the warm-up accounting in its extras and the
    batch container (lane index, finished lanes' rows) beside it.
    ``resume=True`` re-enters that lane mid-flight and skips every
    finished one; an unreadable, structurally stale, container-less or
    different-geometry checkpoint falls back to a fresh run.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1 cycles, got {checkpoint_every}")
    ckpt_path: Optional[str] = None
    if checkpoint_every is not None:
        if checkpoint_dir is None:
            raise ValueError("checkpoint_every needs a checkpoint_dir")
        ckpt_path = campaign_checkpoint_path(spec, checkpoint_dir, replicas)

    # Run in slices so warm-up stats are captured punctually and
    # checkpoints land on exact multiples of checkpoint_every.
    total_cycles = spec.warmup_cycles + spec.measure_cycles
    boundaries = {spec.warmup_cycles, total_cycles}
    if ckpt_path is not None:
        boundaries.update(range(checkpoint_every, total_cycles, checkpoint_every))
    boundaries = sorted(boundaries)

    noc, injector = _build_campaign_noc(spec)
    batch: Optional[BatchSimulator] = None
    rows: List[dict] = []
    warm = dict(_COLD)
    if resume and ckpt_path is not None and os.path.exists(ckpt_path):
        try:
            snap = SimSnapshot.load(ckpt_path)
            batch, extras = BatchSimulator.resume_lane(noc, snap, replicas)
            rows = list(snap.batch["lane_results"])
            warm = {**_COLD, **extras}
        except SnapshotError:
            # Stale or torn checkpoint: a partial restore may have
            # touched state, so rebuild and start from lane 0.
            noc, injector = _build_campaign_noc(spec)
            batch = None
    if batch is None:
        batch = BatchSimulator(noc, replicas)

    # A resumed batch sits mid-flight in its checkpointed lane; a fresh
    # one (``lane == -1``) begins with lane 0.
    for k in range(max(batch.lane, 0), replicas):
        if k != batch.lane:
            batch.begin_lane(k)
            warm = dict(_COLD)
        # Per lane, armed after any restore -- the watchdog hooks the
        # *live* simulator and re-baselines on its first check, and a
        # tripped lane must not poison the next.
        watchdog = (
            ProgressWatchdog(noc, horizon=spec.watchdog_horizon)
            if spec.watchdog_horizon is not None
            else None
        )
        no_progress = False
        no_progress_cycle = -1
        diagnosis = ""
        try:
            for boundary in boundaries:
                if boundary <= noc.sim.cycle:
                    continue
                batch.run_exact(boundary - noc.sim.cycle)
                if noc.sim.cycle == spec.warmup_cycles and not warm["warm_captured"]:
                    warm = {
                        "warm_completed": noc.total_completed(),
                        "warm_samples": len(noc.aggregate_latency().samples),
                        "warm_captured": True,
                    }
                if (
                    ckpt_path is not None
                    and boundary % checkpoint_every == 0
                    and boundary < total_cycles
                ):
                    snap = noc.sim.snapshot(extras=dict(warm))
                    snap.batch = {**batch.batch_state(), "lane_results": rows}
                    snap.save(ckpt_path)
                    _events.emit("checkpoint", cycle=boundary, lane=k)
        except NoProgressError as exc:
            no_progress = True
            no_progress_cycle = exc.cycle
            diagnosis = exc.describe()
        finally:
            if watchdog is not None:
                watchdog.detach()

        cycles_run = noc.sim.cycle
        completed = noc.total_completed()
        samples = noc.aggregate_latency().samples[warm["warm_samples"]:]
        mean, p95 = _latency_stats(samples)
        rows.append(
            {
                "cycles_run": float(cycles_run),
                "issued": float(noc.total_issued()),
                "completed": float(completed),
                "failed": float(noc.total_transactions_failed()),
                "retried": float(noc.total_transactions_retried()),
                "accepted_rate": (completed - warm["warm_completed"])
                / max(cycles_run - spec.warmup_cycles, 1),
                "mean_latency": mean,
                "p95_latency": p95,
                "errors_injected": float(noc.total_errors_injected()),
                "flits_dropped": float(noc.total_flits_dropped()),
                "retransmissions": float(noc.total_retransmissions()),
                "windows_opened": float(injector.windows_opened),
                "no_progress": 1.0 if no_progress else 0.0,
                "no_progress_cycle": float(no_progress_cycle),
                "diagnosis": diagnosis,
            }
        )
        if _events.current_sink() is not None:
            # The digest is only hashed when somebody is listening: the
            # replay check (batch-smoke) compares per-lane digests of a
            # killed-and-resumed campaign against an uninterrupted one.
            _events.emit(
                "lane_batch", lane=k, replicas=replicas,
                metrics={name: rows[-1][name] for name in _LANE_METRICS},
                digest=noc.stats_digest(),
            )

    result = _reduce(spec, rows)
    if ckpt_path is not None and not result.no_progress:
        # Finished cleanly: the checkpoint has served its purpose.
        try:
            os.unlink(ckpt_path)
        except OSError:
            pass
    return result


class ReplicatedCampaign:
    """The picklable :func:`run_campaign` with its knobs bound in --
    what :class:`FaultCampaign` hands to an ``ExperimentRunner``.

    Deliberately *not* a dataclass: the cache token encodes only what
    changes the *result*.  Checkpoint flags change how a result is
    computed, never what it is, so they stay out -- a resumed sweep
    then hits the entries its killed predecessor already published.
    The replica count does change it (means + CIs), so a 3-lane sweep
    and an 8-lane sweep never share entries; one lane keys as the bare
    ``run_campaign`` function.  The multi-lane token text is frozen
    (it names the PR 7 function and the stride) so stores written by
    earlier versions stay valid.
    """

    def __init__(
        self,
        replicas: int = 1,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
    ) -> None:
        self.replicas = replicas
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume

    def __call__(self, spec: CampaignSpec) -> CampaignResult:
        return run_campaign(
            spec,
            self.replicas,
            checkpoint_every=self.checkpoint_every,
            checkpoint_dir=self.checkpoint_dir,
            resume=self.resume,
        )

    def cache_token(self):
        if self.replicas == 1:
            return run_campaign
        return (
            f"run_campaign_replicated(replicas={self.replicas}, "
            f"seed_stride={SEED_STRIDE})"
        )


class FaultCampaign:
    """A batch of campaign specs, optionally runner-accelerated.

    ``replicas`` / ``checkpoint_every`` / ``checkpoint_dir`` /
    ``resume`` are :func:`run_campaign`'s, threaded through the batch
    (and through the runner's worker processes): with ``replicas > 1``
    each point is a seed-varied Monte-Carlo batch whose result carries
    95% confidence intervals."""

    def __init__(
        self,
        specs: Sequence[CampaignSpec],
        runner: Optional[ExperimentRunner] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        replicas: int = 1,
    ) -> None:
        if checkpoint_every is not None and checkpoint_dir is None:
            raise ValueError("checkpoint_every needs a checkpoint_dir")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.specs = list(specs)
        self.runner = runner
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.replicas = replicas

    def run(self) -> List[Optional[CampaignResult]]:
        fn = ReplicatedCampaign(
            self.replicas, self.checkpoint_every, self.checkpoint_dir, self.resume
        )
        if self.runner is None:
            return [fn(s) for s in self.specs]
        # Same provenance surfacing as load_sweep: every surviving point
        # carries its own manifest (cache key, hit/miss, wall time); a
        # point that failed under on_failure="record" stays None.
        results = self.runner.map(fn, self.specs, label="campaign")
        return self.runner.attach_manifests(fn, self.specs, results)


def _env_flag(name: str, raw: Optional[str]) -> bool:
    """Parse a boolean environment variable strictly."""
    if raw is None or raw == "":
        return False
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"{name} must be a boolean flag (0/1/true/false), got {raw!r}")


def checkpoint_options_from_env() -> dict:
    """``REPRO_CHECKPOINT_EVERY`` / ``REPRO_CHECKPOINT_DIR`` /
    ``REPRO_RESUME`` as :class:`FaultCampaign` keyword arguments.

    The environment is how ``python -m repro figures --checkpoint-every
    N --checkpoint-dir DIR --resume`` reaches campaigns inside
    pytest-collected benchmarks (same channel as REPRO_JOBS).  Invalid
    values raise :class:`ValueError` naming the variable.
    """
    raw = os.environ.get("REPRO_CHECKPOINT_EVERY") or None
    every: Optional[int] = None
    if raw is not None:
        try:
            every = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_CHECKPOINT_EVERY must be a cycle count, got {raw!r}"
            ) from None
        if every < 1:
            raise ValueError(
                f"REPRO_CHECKPOINT_EVERY must be >= 1 cycles, got {every}"
            )
    checkpoint_dir = os.environ.get("REPRO_CHECKPOINT_DIR") or None
    if every is not None and checkpoint_dir is None:
        raise ValueError("REPRO_CHECKPOINT_EVERY needs REPRO_CHECKPOINT_DIR")
    resume = _env_flag("REPRO_RESUME", os.environ.get("REPRO_RESUME"))
    return {
        "checkpoint_every": every,
        "checkpoint_dir": checkpoint_dir,
        "resume": resume,
    }


def replicas_from_env(default: Optional[int] = None) -> Optional[int]:
    """``REPRO_REPLICAS`` as a replica count (``python -m repro figures
    --replicas N`` reaches benchmarks through it, like REPRO_JOBS)."""
    raw = os.environ.get("REPRO_REPLICAS") or None
    if raw is None:
        return default
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_REPLICAS must be an integer, got {raw!r}"
        ) from None
    if n < 1:
        raise ValueError(f"REPRO_REPLICAS must be >= 1, got {n}")
    return n


def render_campaign(results: Sequence[CampaignResult]) -> str:
    """Printable table of campaign outcomes (with a +-95% CI column on
    the accepted rate when any result was replicated)."""
    with_ci = any(r.ci95 for r in results)
    header = (
        f"{'label':<22} {'acc/cyc':>8} {'mean':>7} {'p95':>6} "
        f"{'fail':>5} {'retry':>6} {'errs':>6} {'drop':>6} {'rtx':>7}"
    )
    if with_ci:
        header += f" {'+-acc95':>8} {'lanes':>6}"
    lines = [header + "  note"]
    for r in results:
        note = (
            f"NO PROGRESS @ {r.no_progress_cycle}" if r.no_progress else ""
        )
        row = (
            f"{r.label:<22} {r.accepted_rate:>8.4f} {r.mean_latency:>7.1f} "
            f"{r.p95_latency:>6.0f} {r.failed:>5} {r.retried:>6} "
            f"{r.errors_injected:>6} {r.flits_dropped:>6} "
            f"{r.retransmissions:>7}"
        )
        if with_ci:
            half = (r.ci95 or {}).get("accepted_rate", 0.0)
            row += f" {half:>8.4f} {r.replicas:>6d}"
        lines.append(row + f"  {note}")
    return "\n".join(lines)
