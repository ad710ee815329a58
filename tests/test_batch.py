"""Tests for repro.sim.batch: replica lanes over one compiled network.

The batching contract under test (docs/BATCHING.md): lane 0 of a batch
is bit-identical to a scalar run of the network as built, and lane k to
a scalar rebuild with every seed offset by ``k * seed_stride``;
reseed-and-reset reuse of the compiled object graph is unobservable;
the kernel's idle-span collapse changes no statistic and no counter of
a lane; the CI math is Student-t with NaN-dropping; batch checkpoints
ride the v2 snapshot format and a killed replicated campaign resumes to
exactly the uninterrupted result.
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
    campaign_checkpoint_path,
    replicas_from_env,
    run_campaign,
)
from repro.faults.campaign import _build_campaign_noc
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
from repro.sim.snapshot import SimSnapshot, SnapshotError

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
        with pytest.raises(SimulationError):
            BatchSimulator(noc, 4, assume_lane=4)
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

    def test_lane_windows_on_unprobed_links_fail_fast(self):
        noc = build(windows=())
        FaultInjector(noc, (WINDOW,))  # probes only the corner links
        batch = BatchSimulator(
            noc, 2,
            lane_windows=lambda k: (
                FaultWindow("link.sw_1_1.p*", start=10, duration=5,
                            error_rate=0.1),
            ),
        )
        with pytest.raises(SimulationError):
            batch.begin_lane(0)

    def test_a_rejected_schedule_leaves_the_injector_untouched(self):
        noc = build()
        inj = noc.fault_injectors[0]
        noc.run(150)  # WINDOW is open: progress state worth keeping
        before = (inj.windows, inj._resolved, inj._events, inj._next_event,
                  inj.windows_opened)
        with pytest.raises(SimulationError):
            inj.set_windows(
                (FaultWindow("link.sw_1_1.p*", start=10, duration=5),)
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


class TestBatchCheckpoint:
    def test_snapshot_v2_roundtrip_carries_batch_state(self, tmp_path):
        noc = build()
        batch = BatchSimulator(noc, 4)
        batch.begin_lane(2)
        batch.run_exact(500)
        snap = noc.sim.snapshot()
        snap.batch = batch.batch_state()
        path = str(tmp_path / "batch.ckpt")
        snap.save(path)

        loaded = SimSnapshot.load(path)
        assert loaded.version == 2
        assert loaded.batch == {
            "replicas": 4, "lane": 2, "seed_stride": SEED_STRIDE,
        }

    def test_scalar_snapshots_have_no_batch(self, tmp_path):
        noc = build()
        noc.run(200)
        snap = noc.sim.snapshot()
        assert snap.batch is None
        path = str(tmp_path / "scalar.ckpt")
        snap.save(path)
        assert SimSnapshot.load(path).batch is None

    def test_resume_lane_validates_geometry(self):
        donor = BatchSimulator(build(), 4)
        donor.begin_lane(3)
        donor.run_exact(100)
        snap = donor.noc.sim.snapshot()
        with pytest.raises(SnapshotError, match="no batch container"):
            BatchSimulator.resume_lane(build(), snap, 4)
        snap.batch = donor.batch_state()
        with pytest.raises(SimulationError, match="replicas=4"):
            BatchSimulator.resume_lane(build(), snap, 8)
        with pytest.raises(SimulationError, match="stride"):
            BatchSimulator.resume_lane(build(), snap, 4, seed_stride=7)
        batch, extras = BatchSimulator.resume_lane(build(), snap, 4)
        assert batch.lane == 3 and batch.replicas == 4
        assert extras == {}
        assert batch.noc.sim.cycle == 100

    def test_restored_lane_continues_bit_identically(self):
        # Snapshot lane 1 mid-run, restore into a *fresh* build (the
        # crash-recovery path: assume_lane subtracts the lane offset the
        # restored pattern seeds carry), finish, compare to an
        # uninterrupted lane 1.
        ref_batch = BatchSimulator(build(), 3)
        ref_batch.begin_lane(1)
        ref_batch.run_exact(4000)
        ref = ref_batch.noc.stats_digest()

        donor = BatchSimulator(build(), 3)
        donor.begin_lane(1)
        donor.run_exact(1500)
        snap = donor.noc.sim.snapshot()
        snap.batch = donor.batch_state()

        fresh = build()
        resumed, _ = BatchSimulator.resume_lane(
            fresh, snap, 3, seed_stride=snap.batch["seed_stride"]
        )
        assert resumed.lane == 1
        resumed.run_exact(4000 - 1500)
        assert fresh.stats_digest() == ref
        # ... and the lanes after it reseed from the lane-0 base.
        resumed.begin_lane(2)
        resumed.run_exact(4000)
        ref_batch.begin_lane(2)
        ref_batch.run_exact(4000)
        assert fresh.stats_digest() == ref_batch.noc.stats_digest()


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

    def test_kill_and_resume_matches_uninterrupted(self, tmp_path,
                                                   monkeypatch):
        spec = campaign_spec()
        reference = run_campaign(spec, 3)

        # Crash the campaign right after its second checkpoint lands.
        saves = {"n": 0}
        real_save = SimSnapshot.save

        def dying_save(self, path):
            real_save(self, path)
            saves["n"] += 1
            if saves["n"] >= 2:
                raise KeyboardInterrupt("simulated SIGKILL")

        monkeypatch.setattr(SimSnapshot, "save", dying_save)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                spec, 3, checkpoint_every=300, checkpoint_dir=str(tmp_path),
            )
        monkeypatch.setattr(SimSnapshot, "save", real_save)
        ckpts = list(tmp_path.glob("campaign-*.ckpt"))
        assert len(ckpts) == 1 and ckpts[0].name.endswith("-r3.ckpt")

        resumed = run_campaign(
            spec, 3, checkpoint_every=300, checkpoint_dir=str(tmp_path),
            resume=True,
        )
        assert resumed.lane_metrics == reference.lane_metrics
        assert resumed.ci95 == reference.ci95
        assert resumed == reference
        # A finished campaign cleans up after itself.
        assert not list(tmp_path.glob("campaign-*.ckpt"))

    def test_incompatible_checkpoint_falls_back_to_fresh(self, tmp_path):
        spec = campaign_spec()
        reference = run_campaign(spec, 2)
        # A checkpoint from a *different* geometry at the path the
        # 2-replica campaign will probe: must be ignored, not trusted.
        donor_noc = spec.builder()
        donor_noc.run(100)
        snap = donor_noc.sim.snapshot()
        snap.batch = {"replicas": 5, "lane": 3, "seed_stride": 7,
                      "lane_results": []}
        stale = campaign_checkpoint_path(spec, str(tmp_path), 2)
        assert stale.endswith("-r2.ckpt")
        snap.save(stale)
        resumed = run_campaign(
            spec, 2, checkpoint_every=300, checkpoint_dir=str(tmp_path),
            resume=True,
        )
        assert resumed == reference
        assert resumed.lane_metrics == reference.lane_metrics

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
        assert point_key(
            ReplicatedCampaign(1, 100, "/ckpt", resume=True), spec
        ) == scalar
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

    def test_parent_format_scalar_checkpoint_is_stale(self, tmp_path):
        # Before the merge a one-lane campaign checkpointed a bare
        # simulator snapshot (no batch container) at the same path:
        # resume must ignore it and run fresh, not trust or crash on it.
        spec = campaign_spec()
        donor, _ = _build_campaign_noc(spec)
        donor.run(300)
        snap = donor.sim.snapshot(
            extras={"warm_completed": 7, "warm_samples": 7,
                    "warm_captured": True}
        )
        assert snap.batch is None
        path = campaign_checkpoint_path(spec, str(tmp_path))
        snap.save(path)
        resumed = run_campaign(
            spec, checkpoint_every=300, checkpoint_dir=str(tmp_path),
            resume=True,
        )
        assert resumed == PARENT_SCALAR
        assert not list(tmp_path.glob("campaign-*.ckpt"))

    def test_fault_campaign_replicas_is_a_plain_int(self):
        assert FaultCampaign([]).replicas == 1
        with pytest.raises(ValueError):
            FaultCampaign([], replicas=0)
        with pytest.raises(TypeError):
            FaultCampaign([], seed_stride=7)
        (one,) = FaultCampaign([campaign_spec()]).run()
        assert one == PARENT_SCALAR and one.ci95 is None

    def test_replicas_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLICAS", raising=False)
        assert replicas_from_env() is None
        assert replicas_from_env(default=8) == 8
        monkeypatch.setenv("REPRO_REPLICAS", "4")
        assert replicas_from_env(default=8) == 4
        monkeypatch.setenv("REPRO_REPLICAS", "0")
        with pytest.raises(ValueError):
            replicas_from_env()
        monkeypatch.setenv("REPRO_REPLICAS", "many")
        with pytest.raises(ValueError):
            replicas_from_env()


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
