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
watchdog -- and more lanes reduce to means with 95% confidence
intervals (see docs/BATCHING.md).

Specs are frozen dataclasses and :func:`run_campaign` is a module-level
function, so campaigns plug into
:class:`repro.flow.runner.ExperimentRunner` for process-parallel,
disk-cached execution exactly like load sweeps do -- ``FaultCampaign``
is the convenience wrapper, and ``python -m repro faults`` the CLI.  A
point is the unit of resume: re-running a killed campaign on the same
cache recomputes only the points that never finished (see
docs/CHECKPOINT.md).
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.config import NocBuildConfig
from repro.faults.injector import FaultInjector, FaultWindow
from repro.faults.watchdog import NoProgressError, ProgressWatchdog
from repro.flow.session import RunManifest
from repro.network.experiments import TopologyNocBuilder, attach_uniform_traffic
from repro.network.topology import mesh
from repro.sim.batch import SEED_STRIDE, BatchSimulator, mean_ci95
from repro.telemetry import events as _events

if TYPE_CHECKING:
    from repro.flow.runner import ExperimentRunner


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


def _build_campaign_noc(spec: CampaignSpec):
    """Build the campaign's NoC, fault injector and traffic."""
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


def run_campaign(spec: CampaignSpec, replicas: int = 1) -> CampaignResult:
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
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    noc, injector = _build_campaign_noc(spec)
    batch = BatchSimulator(noc, replicas)
    rows: List[dict] = []
    for k in range(replicas):
        batch.begin_lane(k)
        # Per lane: the watchdog hooks the live simulator, and a tripped
        # lane must not poison the next.
        watchdog = (
            ProgressWatchdog(noc, horizon=spec.watchdog_horizon)
            if spec.watchdog_horizon is not None
            else None
        )
        warm_completed = warm_samples = 0
        no_progress = False
        no_progress_cycle = -1
        diagnosis = ""
        try:
            # Stop at the end of warm-up so its stats are captured
            # punctually; slicing a run is cycle-identical to one run.
            batch.run_exact(spec.warmup_cycles)
            warm_completed = noc.total_completed()
            warm_samples = len(noc.aggregate_latency().samples)
            batch.run_exact(spec.measure_cycles)
        except NoProgressError as exc:
            no_progress = True
            no_progress_cycle = exc.cycle
            diagnosis = exc.describe()
        finally:
            if watchdog is not None:
                watchdog.detach()

        cycles_run = noc.sim.cycle
        completed = noc.total_completed()
        samples = noc.aggregate_latency().samples[warm_samples:]
        mean, p95 = _latency_stats(samples)
        rows.append(
            {
                "cycles_run": float(cycles_run),
                "issued": float(noc.total_issued()),
                "completed": float(completed),
                "failed": float(noc.total_transactions_failed()),
                "retried": float(noc.total_transactions_retried()),
                "accepted_rate": (completed - warm_completed)
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
            # replay check compares per-lane digests of a re-run campaign
            # against an uninterrupted one.
            _events.emit(
                "lane_batch", lane=k, replicas=replicas,
                metrics={name: rows[-1][name] for name in _LANE_METRICS},
                digest=noc.stats_digest(),
            )
    return _reduce(spec, rows)


class ReplicatedCampaign:
    """The picklable :func:`run_campaign` with its knobs bound in --
    what :class:`FaultCampaign` hands to an ``ExperimentRunner``.

    Deliberately *not* a dataclass: the cache token is written by hand.
    The replica count changes the result (means + CIs), so a 3-lane
    sweep and an 8-lane sweep never share entries; one lane keys as the
    bare ``run_campaign`` function.  The multi-lane token text is frozen
    (it names the first replicated function and the stride), so stores
    written by earlier versions stay valid.
    """

    def __init__(self, replicas: int = 1) -> None:
        self.replicas = replicas

    def __call__(self, spec: CampaignSpec) -> CampaignResult:
        return run_campaign(spec, self.replicas)

    def cache_token(self):
        if self.replicas == 1:
            return run_campaign
        return (
            f"run_campaign_replicated(replicas={self.replicas}, "
            f"seed_stride={SEED_STRIDE})"
        )


class FaultCampaign:
    """A batch of campaign specs, optionally runner-accelerated.

    ``replicas`` is :func:`run_campaign`'s, threaded through the batch
    (and through the runner's worker processes): with ``replicas > 1``
    each point is a seed-varied Monte-Carlo batch whose result carries
    95% confidence intervals."""

    def __init__(
        self,
        specs: Sequence[CampaignSpec],
        runner: Optional[ExperimentRunner] = None,
        replicas: int = 1,
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.specs = list(specs)
        self.runner = runner
        self.replicas = replicas

    def run(self) -> List[Optional[CampaignResult]]:
        fn = ReplicatedCampaign(self.replicas)
        if self.runner is None:
            return [fn(s) for s in self.specs]
        # Same provenance surfacing as load_sweep: every surviving point
        # carries its own manifest (cache key, hit/miss, wall time); a
        # point that failed under on_failure="record" stays None.
        results = self.runner.map(fn, self.specs, label="campaign")
        return self.runner.attach_manifests(fn, self.specs, results)


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


def faults_main(
    smoke: bool = False,
    jobs: int = 1,
    cache: Optional[str] = None,
    replicas: Optional[int] = None,
) -> int:
    """``python -m repro faults``: a small campaign on a 2x2 mesh
    (baseline, burst, stuck-at, dead link with recovery armed), printed
    as a table; ``smoke`` runs the deterministic resilience check
    instead -- a faulted campaign that must complete and a dead link
    with no recovery armed that the watchdog must catch.  Returns the
    exit code (1 when an expectation or a runner point fails)."""
    replicas = 1 if replicas is None else replicas
    plain = TopologyNocBuilder(mesh, (2, 2), n_initiators=2, n_targets=2)
    # Same fabric with the recovery machinery armed: NI transaction
    # timeouts with one retry, plus the go-back-N sender resync timer.
    hardened = TopologyNocBuilder(
        mesh, (2, 2), n_initiators=2, n_targets=2,
        config=NocBuildConfig(
            ni_txn_timeout=300, ni_txn_retries=1, link_resync_timeout=40
        ),
    )
    east = "link.sw_0_0.p*"  # everything leaving the corner switch

    if smoke:
        # Expectation 1: a faulted campaign still completes traffic.
        healthy = CampaignSpec(
            builder=hardened,
            windows=(
                FaultWindow(east, start=100, duration=200, error_rate=0.3),
                FaultWindow(east, start=400, duration=150, mode="dead"),
            ),
            rate=0.05, warmup_cycles=100, measure_cycles=1200,
            watchdog_horizon=2000, label="smoke-recovers",
        )
        # Expectation 2: a dead link with NO recovery armed must be
        # caught by the watchdog, not hang the simulation.
        wedged = CampaignSpec(
            builder=plain,
            windows=(FaultWindow(east, start=100, duration=10_000, mode="dead"),),
            rate=0.05, warmup_cycles=100, measure_cycles=5000,
            watchdog_horizon=600, label="smoke-wedged",
        )
        results = FaultCampaign([healthy, wedged], replicas=replicas).run()
        print(render_campaign(results))
        ok = True
        if results[0].no_progress or results[0].completed <= 0:
            print("SMOKE FAILED: recovery campaign did not complete", file=sys.stderr)
            ok = False
        if results[0].errors_injected <= 0 and results[0].flits_dropped <= 0:
            print("SMOKE FAILED: no faults actually landed", file=sys.stderr)
            ok = False
        if not results[1].no_progress:
            print(
                "SMOKE FAILED: watchdog did not catch the dead link",
                file=sys.stderr,
            )
            ok = False
        else:
            print(f"\nwatchdog diagnosis:\n{results[1].diagnosis}")
        return 0 if ok else 1

    from repro.flow.runner import ExperimentRunner
    from repro.store import ResultStore

    runner = (
        ExperimentRunner(jobs=jobs, store=ResultStore(cache) if cache else None)
        if jobs > 1 or cache
        else None
    )
    specs = [
        CampaignSpec(builder=plain, rate=0.05, label="baseline"),
        CampaignSpec(
            builder=plain,
            windows=(FaultWindow(east, start=400, duration=800, error_rate=0.3),),
            rate=0.05, label="burst 0.3",
        ),
        CampaignSpec(
            builder=plain,
            windows=(FaultWindow(east, start=400, duration=300, mode="stuck"),),
            rate=0.05, label="stuck 300cyc",
        ),
        CampaignSpec(
            builder=hardened,
            windows=(FaultWindow(east, start=400, duration=400, mode="dead"),),
            rate=0.05, label="dead 400cyc +recovery",
        ),
    ]
    with runner or contextlib.nullcontext():  # one pool for the verb
        results = FaultCampaign(specs, runner=runner, replicas=replicas).run()
    print(render_campaign(results))
    if runner is not None and runner.failures:
        print(runner.render_report("faults runner"), file=sys.stderr)
        return 1
    return 0
