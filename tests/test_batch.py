"""Tests for repro.sim.batch: replica lanes over one compiled network.

The batching contract under test (docs/BATCHING.md): lane 0 of a batch
is bit-identical to a scalar run of the network as built, and lane k to
a scalar rebuild with every seed offset by ``k * seed_stride``;
reseed-and-reset reuse of the compiled object graph is unobservable;
the kernel's idle-span collapse changes no statistic and no counter of
a lane; the CI math is Student-t with NaN-dropping; a campaign's
results and store keys are pinned to the commits that first wrote them.
"""

import functools
import math

import numpy as np
import pytest

from repro.faults import (
    CampaignResult,
    CampaignSpec,
    FaultCampaign,
    FaultInjector,
    FaultWindow,
    ReplicatedCampaign,
    run_campaign,
)
from repro.flow.runner import ExperimentRunner, point_key
from repro.network.experiments import (
    LoadPoint,
    TopologyNocBuilder,
    load_sweep,
    measure_load_point_lane,
)
from repro.network.noc import NocBuildConfig
from repro.network.topology import mesh
from repro.network.traffic import UniformRandomTraffic
from repro.sim.batch import (
    SEED_STRIDE,
    BatchResult,
    BatchSimulator,
    mean_ci95,
    run_batch,
    summarize,
    t_quantile_95,
)
from repro.sim.kernel import SimulationError

CORNER = "link.sw_0_0.p*"
WINDOW = FaultWindow(CORNER, start=100, duration=200, error_rate=0.2)


def build(lane: int = 0, windows=(WINDOW,), max_transactions=2, rate=0.01,
          kernel="compiled"):
    """The scalar construction of replica ``lane``: seeds offset by
    ``lane * SEED_STRIDE``, exactly what ``begin_lane`` re-creates."""
    builder = TopologyNocBuilder(
        mesh, (2, 2), n_initiators=2, n_targets=2,
        config=NocBuildConfig(kernel=kernel),
    )
    noc = builder()
    if windows:
        FaultInjector(noc, windows)
    off = lane * SEED_STRIDE
    noc.populate(
        {
            c: UniformRandomTraffic(noc.topology.targets, rate, seed=17 * i + off)
            for i, c in enumerate(noc.topology.initiators)
        },
        max_transactions=max_transactions,
    )
    for link in noc.links:
        link._seed += off
    noc.sim.reset()  # links re-draw their RNGs from the offset seeds
    return noc


class TestCIMath:
    def test_t_quantiles(self):
        assert t_quantile_95(1) == pytest.approx(12.706)
        assert t_quantile_95(30) == pytest.approx(2.042)
        assert t_quantile_95(31) == pytest.approx(1.960)  # normal beyond
        with pytest.raises(ValueError):
            t_quantile_95(0)

    def test_mean_ci95_known_value(self):
        mean, half = mean_ci95([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        # t(df=2) * std(ddof=1) / sqrt(3) = 4.303 * 1 / sqrt(3)
        assert half == pytest.approx(4.303 / math.sqrt(3))

    def test_single_observation_has_no_spread(self):
        assert mean_ci95([5.0]) == (5.0, 0.0)

    def test_nans_dropped_before_reduction(self):
        mean, half = mean_ci95([1.0, float("nan"), 3.0])
        ref_mean, ref_half = mean_ci95([1.0, 3.0])
        assert (mean, half) == (ref_mean, ref_half)

    def test_all_nan_reduces_to_nan(self):
        mean, half = mean_ci95([float("nan"), float("nan")])
        assert math.isnan(mean) and half == 0.0
        mean, half = mean_ci95([])
        assert math.isnan(mean) and half == 0.0

    def test_summarize_counts_finite_lanes(self):
        s = summarize([1.0, float("nan"), 3.0])
        assert s["n"] == 2
        assert s["mean"] == pytest.approx(2.0)
        assert set(s) == {"mean", "ci95", "n"}


class TestBatchSimulator:
    def test_validation(self):
        noc = build()
        with pytest.raises(SimulationError):
            BatchSimulator(noc, 0)
        batch = BatchSimulator(noc, 2)
        with pytest.raises(SimulationError):
            batch.begin_lane(2)
        batch.begin_lane(0)
        with pytest.raises(SimulationError):
            batch.run_exact(-1)

    def test_every_lane_matches_a_scalar_rebuild(self):
        batch = BatchSimulator(build(), 3)
        result = batch.run_lanes(
            5000, lambda noc, k: {"completed": float(noc.total_completed())},
            digest=True,
        )
        for k in range(3):
            scalar = build(lane=k)
            scalar.sim.compile()
            scalar.run(5000)
            assert result.digests[k] == scalar.stats_digest(), f"lane {k}"

    def test_reset_reuse_is_unobservable(self):
        # Re-running lane 0 after other lanes have dirtied the object
        # graph must reproduce the first pass exactly.
        batch = BatchSimulator(build(), 2)
        batch.begin_lane(0)
        batch.run_exact(5000)
        first = batch.noc.stats_digest()
        batch.begin_lane(1)
        batch.run_exact(5000)
        batch.begin_lane(0)
        batch.run_exact(5000)
        assert batch.noc.stats_digest() == first

    def test_skipping_matches_full_execution_and_its_counters(self):
        # A bounded episode on a long horizon: the collapsing loop must
        # land on the same digest, cycle, and tick totals as the same
        # program stepping per cycle -- which a watcher forces.
        ref = build()
        ref.sim.compile()
        stepped = []
        ref.sim.add_watcher(stepped.append)
        ref.run(20_000)
        assert len(stepped) == 20_000

        batch_noc = build()
        batch = BatchSimulator(batch_noc, 1)
        batch.begin_lane(0)
        batch.run_exact(20_000)

        assert batch_noc.stats_digest() == ref.stats_digest()
        assert batch_noc.sim.cycle == ref.sim.cycle
        assert batch_noc.sim.ticks_executed == ref.sim.ticks_executed
        assert batch_noc.sim.ticks_skipped == ref.sim.ticks_skipped
        assert batch_noc.sim.ticks_skipped > 0

    def test_lane_windows_reschedule_faults_per_lane(self):
        def lane_windows(k):
            return (FaultWindow(CORNER, start=100 + 50 * k, duration=200,
                                error_rate=0.2),)

        noc = build()
        batch = BatchSimulator(noc, 2, lane_windows=lane_windows)
        result = batch.run_lanes(
            3000,
            lambda n, k: {"errors": float(n.total_errors_injected())},
            digest=True,
        )
        # Lane 1 == scalar rebuild with lane-1 seeds AND lane-1 windows.
        scalar = build(lane=1, windows=lane_windows(1))
        scalar.sim.compile()
        scalar.run(3000)
        assert result.digests[1] == scalar.stats_digest()

    def test_lane_windows_may_fault_links_the_first_schedule_did_not(self):
        # The injector is built over the corner links; lane 1 faults
        # the opposite corner's instead, on the same compiled program.
        def lane_windows(k):
            return (FaultWindow("link.sw_1_1.p*" if k else CORNER, start=100,
                                duration=2000, mode="stuck"),)

        noc = build(rate=0.05, max_transactions=20)
        batch = BatchSimulator(noc, 2, lane_windows=lane_windows)
        program = batch.program
        result = batch.run_lanes(
            3000,
            lambda n, k: {"faulted": float(sum(
                n.fault_injectors[0].flits_during_fault.values()))},
            digest=True,
        )
        assert noc.sim.compile() is program
        scalar = build(lane=1, windows=lane_windows(1), rate=0.05,
                       max_transactions=20)
        scalar.run(3000)
        assert result.digests[1] == scalar.stats_digest()
        assert result.metrics["faulted"][1] == sum(
            scalar.fault_injectors[0].flits_during_fault.values()) > 0

    def test_a_rejected_schedule_leaves_the_injector_untouched(self):
        noc = build()
        inj = noc.fault_injectors[0]
        noc.run(150)  # WINDOW is open: progress state worth keeping
        before = (inj.windows, inj._resolved, inj._events, inj._next_event,
                  inj.windows_opened)
        with pytest.raises(SimulationError):
            inj.set_windows(
                (FaultWindow("link.nope*", start=10, duration=5),)
            )
        assert (inj.windows, inj._resolved, inj._events, inj._next_event,
                inj.windows_opened) == before
        noc.run(4850)
        untouched = build()
        untouched.run(5000)
        assert noc.stats_digest() == untouched.stats_digest()

    def test_run_batch_forwards_lane_windows(self):
        def lane_windows(k):
            return (FaultWindow(CORNER, start=100 + 50 * k, duration=200,
                                error_rate=0.2),)

        result = run_batch(
            build, 2, 3000,
            lambda n, k: {"errors": float(n.total_errors_injected())},
            lane_windows=lane_windows, digest=True,
        )
        scalar = build(lane=1, windows=lane_windows(1))
        scalar.run(3000)
        assert result.digests[1] == scalar.stats_digest()

    def test_run_lanes_reduces_to_soa_arrays(self):
        result = run_batch(
            lambda: build(),
            3, 2000,
            lambda noc, k: {"completed": float(noc.total_completed())},
            digest=True,
        )
        assert isinstance(result, BatchResult)
        assert result.replicas == 3
        assert result.seeds.dtype == np.int64
        assert list(result.seeds) == [0, SEED_STRIDE, 2 * SEED_STRIDE]
        assert result.metrics["completed"].shape == (3,)
        assert result.metrics["completed"].dtype == np.float64
        assert set(result.reduced["completed"]) == {"mean", "ci95", "n"}
        assert len(result.digests) == 3

    def test_interpreted_kernel_network_is_recompiled(self):
        noc = build(kernel="interpreted")
        batch = BatchSimulator(noc, 1)
        assert noc.sim.kernel == "compiled"
        assert batch.program is not None


def campaign_spec(**kw):
    builder = TopologyNocBuilder(
        mesh, (2, 2), n_initiators=2, n_targets=2,
        config=NocBuildConfig(
            ni_txn_timeout=300, ni_txn_retries=1, link_resync_timeout=40,
        ),
    )
    defaults = dict(
        builder=builder,
        windows=(FaultWindow("link.*", start=150, duration=500,
                             error_rate=0.05),),
        rate=0.08,
        warmup_cycles=150,
        measure_cycles=1200,
        seed=3,
        label="batch-test",
    )
    defaults.update(kw)
    return CampaignSpec(**defaults)


#: ``run_campaign(campaign_spec())`` at the commit before the merge.
PARENT_SCALAR = CampaignResult(
    label="batch-test", offered_rate=0.08, cycles_run=1350, issued=169,
    completed=164, failed=0, retried=0, accepted_rate=0.12416666666666666,
    mean_latency=32.09395973154363, p95_latency=45.0, errors_injected=82,
    flits_dropped=0, retransmissions=308, windows_opened=16,
)
#: ``run_campaign_replicated(campaign_spec(), 3)`` at the same commit.
PARENT_REPLICATED = CampaignResult(
    label="batch-test", offered_rate=0.08, cycles_run=1350, issued=177,
    completed=171, failed=0, retried=0, accepted_rate=0.13055555555555556,
    mean_latency=31.553949975060778, p95_latency=43.333333333333336,
    errors_injected=75, flits_dropped=0, retransmissions=265,
    windows_opened=16, replicas=3,
    ci95={
        "accepted_rate": 0.019236175352881097,
        "mean_latency": 2.212634855613159,
        "p95_latency": 3.794889297170311,
    },
    lane_metrics={
        "cycles_run": (1350.0, 1350.0, 1350.0),
        "issued": (169.0, 173.0, 189.0),
        "completed": (164.0, 168.0, 181.0),
        "failed": (0.0, 0.0, 0.0),
        "retried": (0.0, 0.0, 0.0),
        "accepted_rate": (0.12416666666666666, 0.12833333333333333,
                          0.13916666666666666),
        "mean_latency": (32.09395973154363, 30.525974025974026,
                         32.041916167664674),
        "p95_latency": (45.0, 43.0, 42.0),
        "errors_injected": (82.0, 56.0, 86.0),
        "flits_dropped": (0.0, 0.0, 0.0),
        "retransmissions": (308.0, 168.0, 320.0),
        "windows_opened": (16.0, 16.0, 16.0),
        "no_progress": (0.0, 0.0, 0.0),
    },
)


class TestReplicatedCampaign:
    def test_one_replica_equals_the_scalar_campaign(self):
        spec = campaign_spec()
        scalar = run_campaign(spec)
        replicated = run_campaign(spec, 1)
        assert replicated.replicas == 1
        # Field-for-field on everything the scalar campaign measures.
        for name in ("label", "offered_rate", "cycles_run", "issued",
                     "completed", "failed", "retried", "accepted_rate",
                     "mean_latency", "p95_latency", "errors_injected",
                     "flits_dropped", "retransmissions", "windows_opened",
                     "no_progress"):
            assert getattr(replicated, name) == getattr(scalar, name), name

    def test_replicas_carry_cis_and_lane_zero_is_the_scalar_run(self):
        spec = campaign_spec()
        scalar = run_campaign(spec)
        replicated = run_campaign(spec, 3)
        assert replicated.replicas == 3
        assert set(replicated.ci95) == {
            "accepted_rate", "mean_latency", "p95_latency",
        }
        lanes = replicated.lane_metrics
        assert all(len(v) == 3 for v in lanes.values())
        assert lanes["accepted_rate"][0] == pytest.approx(scalar.accepted_rate)
        assert lanes["completed"][0] == scalar.completed
        mean, half = mean_ci95(lanes["accepted_rate"])
        assert replicated.accepted_rate == pytest.approx(mean)
        assert replicated.ci95["accepted_rate"] == pytest.approx(half)

    def test_cache_token_distinguishes_replication(self):
        wrapped = ReplicatedCampaign(3)
        assert "replicas=3" in wrapped.cache_token()
        assert ReplicatedCampaign(3).cache_token() != ReplicatedCampaign(
            4
        ).cache_token()

    def test_store_keys_are_the_parent_commits(self):
        # Literals computed at the commit before the scalar/replicated
        # bodies were merged (PR 13): stores written then stay valid.
        spec = campaign_spec()
        scalar = "2c5bfa4b2805fd8f9ee982f1d2d1f327e3f643d04936b8b7067b8d1b06666fe3"
        assert point_key(run_campaign, spec) == scalar
        assert point_key(ReplicatedCampaign(), spec) == scalar
        assert point_key(ReplicatedCampaign(3), spec) == (
            "cff8d7ae9850c5ef68d1b38ad8c6101aa091441d602fc93958bed0ab0fe9d393"
        )

    def test_one_lane_is_the_parent_commits_scalar_result(self):
        result = run_campaign(campaign_spec())
        assert result.replicas == 1
        assert result.ci95 is None
        assert result.lane_metrics is None
        assert result == PARENT_SCALAR
        assert run_campaign(campaign_spec(), 1) == PARENT_SCALAR

    def test_three_lanes_are_the_parent_commits_replicated_result(self):
        result = run_campaign(campaign_spec(), 3)
        assert result == PARENT_REPLICATED
        assert result.ci95 == PARENT_REPLICATED.ci95
        assert result.lane_metrics == PARENT_REPLICATED.lane_metrics

    def test_fault_campaign_replicas_is_a_plain_int(self):
        assert FaultCampaign([]).replicas == 1
        with pytest.raises(ValueError):
            FaultCampaign([], replicas=0)
        with pytest.raises(TypeError):
            FaultCampaign([], seed_stride=7)
        (one,) = FaultCampaign([campaign_spec()]).run()
        assert one == PARENT_SCALAR and one.ci95 is None


class TestReplicatedSweeps:
    def test_load_sweep_replicas_reduce_with_cis(self):
        pts = load_sweep(
            TopologyNocBuilder(mesh, (2, 2), n_initiators=2, n_targets=2),
            rates=(0.02,), seed=3, warmup_cycles=150, measure_cycles=800,
            replicas=3,
        )
        (p,) = pts
        assert p.replicas == 3
        assert set(p.ci95) == {"accepted_rate", "mean_latency", "p95_latency"}
        assert p.ci95["accepted_rate"] >= 0.0

    def test_load_sweep_single_replica_stays_raw(self):
        pts = load_sweep(
            TopologyNocBuilder(mesh, (2, 2), n_initiators=2, n_targets=2),
            rates=(0.02,), seed=3, warmup_cycles=150, measure_cycles=800,
        )
        assert pts[0].replicas == 1 and pts[0].ci95 is None

    def test_replicated_lane_key_is_the_parent_commits(self):
        # One lane of the 3-replica sweep above, keyed exactly as the
        # commit before the merge keyed it; the one-lane sweep's point
        # is now lane 0 of the same family (documented key move).
        builder = TopologyNocBuilder(mesh, (2, 2), n_initiators=2, n_targets=2)
        runner = ExperimentRunner()
        pts = load_sweep(
            builder, rates=(0.02,), seed=3, warmup_cycles=150,
            measure_cycles=800, replicas=2, runner=runner,
        )
        lane0, lane1 = (m.key for m in runner.last_manifests)
        assert lane0 == (
            "b182f88373f1b4c4fe967f5b8ba7c03ebee97cc77187df10ee31e4a9c6ebd068"
        )
        assert lane1 == (
            "6d2ade6843467e211bf249479c826210b51eda620b2ba4fab59db82c94902987"
        )
        assert pts[0].manifest.key == lane0
        (scalar,) = load_sweep(
            builder, rates=(0.02,), seed=3, warmup_cycles=150,
            measure_cycles=800, runner=runner,
        )
        assert scalar.manifest.key == lane0

    def test_sweep_values_are_the_parent_commits(self):
        builder = TopologyNocBuilder(mesh, (2, 2), n_initiators=2, n_targets=2)
        kw = dict(rates=(0.02,), seed=3, warmup_cycles=150, measure_cycles=800)
        (raw,) = load_sweep(builder, **kw)
        assert raw == LoadPoint(0.02, 0.03625, 28.448275862068964, 32.0, 29)
        (mean,) = load_sweep(builder, replicas=3, **kw)
        assert mean == LoadPoint(
            0.02, 0.04125, 27.978920901391408, 32.333333333333336, 33,
            replicas=3,
        )
        assert mean.ci95 == {
            "accepted_rate": 0.01423083486438867,
            "mean_latency": 1.0768075279794298,
            "p95_latency": 1.4343333333333335,
        }

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_failed_rate_is_none_and_survivors_keep_their_manifest(
        self, replicas
    ):
        # Regression: zipping results against runner.last_manifests
        # (compacted past failures) crashed -- TypeError at one lane,
        # AttributeError at two -- and would have handed the survivor
        # its failed neighbour's slot.
        builder = TopologyNocBuilder(mesh, (2, 2), n_initiators=2, n_targets=2)
        runner = ExperimentRunner(on_failure="record")
        bad, good = load_sweep(
            builder, rates=(-1.0, 0.02), seed=3, warmup_cycles=150,
            measure_cycles=800, runner=runner, replicas=replicas,
        )
        assert bad is None
        assert len(runner.failures) == replicas
        assert good.offered_rate == 0.02 and good.replicas == replicas
        fn = functools.partial(
            measure_load_point_lane, builder, warmup_cycles=150,
            measure_cycles=800, max_outstanding=4,
        )
        assert good.manifest.key == point_key(fn, (0.02, 3))
