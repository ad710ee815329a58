"""Tests for repro.faults: injection, watchdog, timeouts, campaigns.

The resilience contract under test (docs/RESILIENCE.md): fault windows
open and close punctually on the links they name; a network that stops
moving raises :class:`NoProgressError` with a diagnostic snapshot
instead of hanging; NI transaction timeouts retry and then *report*
lost transactions; and campaigns measure all of it reproducibly through
the experiment runner.
"""

import dataclasses

import pytest

from repro.faults import (
    CampaignSpec,
    FaultCampaign,
    FaultInjector,
    FaultWindow,
    NoProgressError,
    ProgressWatchdog,
    randomized_windows,
    run_campaign,
)
from repro.flow.runner import ExperimentRunner
from repro.network.experiments import TopologyNocBuilder, verify_fast_path
from repro.network.monitors import occupancy_snapshot
from repro.network.noc import Noc, NocBuildConfig
from repro.network.topology import attach_round_robin, mesh, ring
from repro.network.traffic import UniformRandomTraffic
from repro.sim.kernel import KERNEL_MODES, SimulationError
from repro.store import ResultStore

from tests.conftest import build_small_mesh_noc

CORNER = "link.sw_0_0.p*"

RECOVERY = dict(ni_txn_timeout=300, ni_txn_retries=1, link_resync_timeout=40)


def populated(noc, cpus, mems, rate=0.05, **kw):
    noc.populate(
        {c: UniformRandomTraffic(mems, rate, seed=i) for i, c in enumerate(cpus)},
        **kw,
    )
    return noc


class TestFaultWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultWindow("l", start=-1, duration=10)
        with pytest.raises(ValueError):
            FaultWindow("l", start=0, duration=0)
        with pytest.raises(ValueError):
            FaultWindow("l", start=0, duration=1, mode="flaky")
        with pytest.raises(ValueError):
            FaultWindow("l", start=0, duration=1, error_rate=0.0)
        with pytest.raises(ValueError):
            FaultWindow("l", start=0, duration=1, error_rate=1.5)

    def test_end_is_exclusive(self):
        assert FaultWindow("l", start=10, duration=5).end == 15

    def test_stuck_at_full_rate_allowed_as_fault(self):
        # Build-time LinkConfig rejects error_rate >= 1.0; the runtime
        # fault override is exactly how stuck-at links are expressed.
        FaultWindow("l", start=0, duration=1, mode="stuck")


class TestLinkFaultOverride:
    def test_set_fault_validation(self):
        noc, _, _ = build_small_mesh_noc()
        link = noc.links[0]
        with pytest.raises(ValueError):
            link.set_fault(error_rate=1.5)
        with pytest.raises(ValueError):
            link.set_fault()  # neither a rate nor drop

    def test_clear_restores_configured_behaviour(self):
        noc, _, _ = build_small_mesh_noc()
        link = noc.links[0]
        link.set_fault(error_rate=1.0)
        assert link.fault_active
        link.clear_fault()
        assert not link.fault_active


class TestFaultInjector:
    def test_unknown_link_fails_at_construction(self):
        noc, _, _ = build_small_mesh_noc()
        with pytest.raises(SimulationError, match="matches no link"):
            FaultInjector(noc, [FaultWindow("link.nope*", start=0, duration=5)])

    def test_pattern_resolves_to_many_links(self):
        noc, _, _ = build_small_mesh_noc()
        inj = FaultInjector(noc, [FaultWindow(CORNER, start=0, duration=5)])
        (_, links), = inj._resolved
        assert len(links) >= 2  # the corner switch drives several links
        assert all(l.name.startswith("link.sw_0_0.") for l in links)

    def test_windows_open_and_close_on_schedule(self):
        noc, cpus, mems = build_small_mesh_noc()
        links = [l for l in noc.links if l.name.startswith("link.sw_0_0.")]
        inj = FaultInjector(
            noc, [FaultWindow(CORNER, start=10, duration=20, error_rate=0.9)]
        )
        populated(noc, cpus, mems)
        noc.run(10)
        assert not any(l.fault_active for l in links)
        noc.run(1)  # tick(10) has executed: window open
        assert all(l.fault_active for l in links)
        noc.run(20)  # through tick(30): window closed again
        assert not any(l.fault_active for l in links)
        assert inj.windows_opened == len(links)
        assert inj.windows_closed == len(links)
        assert inj.done

    def test_overlapping_windows_newest_wins_then_revert(self):
        noc, cpus, mems = build_small_mesh_noc()
        name = next(l.name for l in noc.links if l.name.startswith("link.sw_0_0."))
        link = next(l for l in noc.links if l.name == name)
        FaultInjector(
            noc,
            [
                FaultWindow(name, start=5, duration=40, error_rate=0.2),
                FaultWindow(name, start=15, duration=10, mode="dead"),
            ],
        )
        populated(noc, cpus, mems)
        noc.run(12)
        assert link.fault_active and not link._fault_drop
        noc.run(10)  # inside the nested dead window
        assert link._fault_drop
        noc.run(10)  # dead closed, outer burst window restored
        assert link.fault_active and not link._fault_drop
        assert link._fault_rate == 0.2
        noc.run(20)
        assert not link.fault_active

    def test_dead_window_drops_flits_and_counts_activity(self):
        noc, cpus, mems = build_small_mesh_noc(**RECOVERY)
        inj = FaultInjector(
            noc, [FaultWindow(CORNER, start=100, duration=200, mode="dead")]
        )
        populated(noc, cpus, mems, rate=0.1)
        noc.run(800)
        assert noc.total_flits_dropped() > 0
        assert sum(inj.flits_during_fault.values()) > 0

    #: ``stats_digest`` of the rig below as the parent commit's injector
    #: left it, when a per-link tick probe did the counting: counting in
    #: the link instead changed no statistic.
    PROBED_DIGEST = "0a19733bc496fe427ec99a577035b811b77243289e31db5024e2ee1843b36f7b"

    @pytest.mark.parametrize("kernel", KERNEL_MODES)
    def test_flits_during_fault_are_the_flits_moved_under_an_override(self, kernel):
        # The links are error-free outside the windows, so every
        # corrupted flit crossed under the stuck window and every
        # dropped one under the dead window.
        noc, cpus, mems = build_small_mesh_noc(kernel=kernel, **RECOVERY)
        inj = FaultInjector(noc, [
            FaultWindow(CORNER, start=100, duration=200, mode="stuck"),
            FaultWindow(CORNER, start=400, duration=100, mode="dead"),
        ])
        populated(noc, cpus, mems, rate=0.1)
        noc.run(800)
        moved = {
            link.name: link.errors_injected + link.flits_dropped
            for link in noc.links if link.name.startswith("link.sw_0_0.")
        }
        assert inj.flits_during_fault == moved
        assert sum(moved.values()) == 413  # the same under every kernel
        assert not noc.sim._probes  # counting hooks nothing into the kernel
        assert noc.stats_digest() == self.PROBED_DIGEST

    def test_randomized_windows_reproducible(self):
        names = ["a", "b"]
        w1 = randomized_windows(names, 5, horizon=1000, seed=7)
        w2 = randomized_windows(names, 5, horizon=1000, seed=7)
        w3 = randomized_windows(names, 5, horizon=1000, seed=8)
        assert w1 == w2
        assert w1 != w3
        assert all(w.start < 1000 for w in w1)


class TestNiTimeouts:
    def test_timeout_without_retry_reports_lost(self):
        # A link dead forever, no resync: the NI must deliver SResp.ERR
        # so the master learns the loss instead of waiting forever.
        noc, cpus, mems = build_small_mesh_noc(
            ni_txn_timeout=200, ni_txn_retries=0
        )
        FaultInjector(
            noc, [FaultWindow(CORNER, start=50, duration=100_000, mode="dead")]
        )
        populated(noc, cpus, mems, rate=0.1)
        noc.run(3000)
        assert noc.total_transactions_failed() > 0
        failed = sum(m.failed for m in noc.masters.values())
        assert failed == noc.total_transactions_failed()
        # Failed transactions freed their slots: masters kept issuing.
        assert noc.total_issued() > noc.total_completed() + 1

    def test_retry_recovers_transient_dead_link(self):
        noc, cpus, mems = build_small_mesh_noc(**RECOVERY)
        FaultInjector(
            noc, [FaultWindow(CORNER, start=200, duration=400, mode="dead")]
        )
        populated(noc, cpus, mems)
        noc.run(3000)
        assert noc.total_transactions_retried() > 0
        assert noc.total_flits_dropped() > 0
        # Recovery won: the fabric keeps completing after the window.
        before = noc.total_completed()
        noc.run(1000)
        assert noc.total_completed() > before


class TestProgressWatchdog:
    def test_idle_network_never_trips(self):
        noc, cpus, mems = build_small_mesh_noc()
        wd = ProgressWatchdog(noc, horizon=50)
        noc.run(1000)  # nothing populated: idle, not stuck
        assert wd.trips == 0 and wd.checks > 0

    def test_healthy_traffic_never_trips(self):
        noc, cpus, mems = build_small_mesh_noc()
        wd = ProgressWatchdog(noc, horizon=200)
        populated(noc, cpus, mems)
        noc.run(3000)
        assert wd.trips == 0

    def test_dead_link_without_recovery_trips_with_snapshot(self):
        noc, cpus, mems = build_small_mesh_noc()
        FaultInjector(
            noc, [FaultWindow(CORNER, start=100, duration=100_000, mode="dead")]
        )
        ProgressWatchdog(noc, horizon=500)
        populated(noc, cpus, mems)
        with pytest.raises(NoProgressError) as exc_info:
            noc.run(20_000)
        exc = exc_info.value
        # Caught within one horizon + check interval of the stall, not
        # at the end of the cycle budget.
        assert exc.cycle < 2000
        assert exc.horizon == 500
        stuck = [m for m in exc.snapshot["masters"].values() if m["in_flight"]]
        assert stuck, "the snapshot must show who is still waiting"
        assert "no progress for 500 cycles" in exc.describe()

    def test_deadlock_prone_policy_caught_at_runtime(self):
        # The acceptance scenario: a routing policy the design-time
        # analysis already rejects (ring + shortest has a dependency
        # cycle) wedges under heavy wormhole traffic; the watchdog must
        # convert the hang into a diagnostic within its horizon.
        from repro.network.deadlock import check_deadlock_freedom

        topo = ring(6)
        cpus, mems = attach_round_robin(topo, 3, 3)
        assert not check_deadlock_freedom(topo, "shortest").is_deadlock_free
        noc = Noc(topo, config=NocBuildConfig(
            buffer_depth=2, routing_policy="shortest"
        ))
        ProgressWatchdog(noc, horizon=1000)
        noc.populate(
            {
                c: UniformRandomTraffic(mems, 0.8, burst_len=8, seed=i)
                for i, c in enumerate(cpus)
            },
            max_outstanding=8,
        )
        with pytest.raises(NoProgressError) as exc_info:
            noc.run(30_000)
        exc = exc_info.value
        assert exc.cycle < 10_000, "must fire within the horizon, not the budget"
        # The snapshot pins the deadlock: switch queues hold flits.
        depths = [
            d for sw in exc.snapshot["switches"].values()
            for d in sw["queue_depths"]
        ]
        assert any(depths)

    def test_detach_disarms(self):
        noc, cpus, mems = build_small_mesh_noc()
        FaultInjector(
            noc, [FaultWindow(CORNER, start=100, duration=100_000, mode="dead")]
        )
        wd = ProgressWatchdog(noc, horizon=300)
        populated(noc, cpus, mems)
        wd.detach()
        noc.run(5000)  # would have tripped; detached watchdog must not
        assert wd.trips == 0

    def test_occupancy_snapshot_shape(self):
        noc, cpus, mems = build_small_mesh_noc()
        populated(noc, cpus, mems)
        noc.run(200)
        snap = occupancy_snapshot(noc)
        assert snap["cycle"] == 200
        assert set(snap["switches"]) == set(noc.switches)
        assert set(snap["masters"]) == set(noc.masters)


BUILDER = TopologyNocBuilder(mesh, (2, 2), n_initiators=2, n_targets=2)
HARDENED = TopologyNocBuilder(
    mesh, (2, 2), n_initiators=2, n_targets=2,
    config=NocBuildConfig(**RECOVERY),
)


class TestCampaign:
    def test_run_campaign_measures(self):
        spec = CampaignSpec(
            builder=BUILDER,
            windows=(FaultWindow(CORNER, start=300, duration=400, error_rate=0.4),),
            rate=0.05, measure_cycles=1500, label="burst",
        )
        r = run_campaign(spec)
        assert r.label == "burst"
        assert r.completed > 0 and r.accepted_rate > 0
        assert r.errors_injected > 0
        assert r.windows_opened > 0
        assert not r.no_progress

    def test_no_progress_is_reported_not_raised(self):
        spec = CampaignSpec(
            builder=BUILDER,
            windows=(FaultWindow(CORNER, start=100, duration=50_000, mode="dead"),),
            rate=0.05, measure_cycles=10_000,
            watchdog_horizon=500, label="wedged",
        )
        r = run_campaign(spec)
        assert r.no_progress
        assert 0 < r.no_progress_cycle < 10_000
        assert "no progress" in r.diagnosis

    def test_recovery_campaign_reports_retries(self):
        spec = CampaignSpec(
            builder=HARDENED,
            windows=(FaultWindow(CORNER, start=300, duration=400, mode="dead"),),
            rate=0.05, measure_cycles=2000, label="dead+recovery",
        )
        r = run_campaign(spec)
        assert not r.no_progress
        assert r.flits_dropped > 0
        assert r.retried > 0 or r.failed == 0

    def test_campaign_results_are_deterministic(self):
        spec = CampaignSpec(builder=BUILDER, rate=0.05, measure_cycles=800)
        assert run_campaign(spec) == run_campaign(spec)

    def test_runner_caches_campaigns(self, tmp_path):
        specs = [
            CampaignSpec(builder=BUILDER, rate=r, measure_cycles=600)
            for r in (0.02, 0.05)
        ]
        runner = ExperimentRunner(jobs=1, store=ResultStore(str(tmp_path)))
        first = FaultCampaign(specs, runner=runner).run()
        second = FaultCampaign(specs, runner=runner).run()
        assert [m.cached for m in (r.manifest for r in first)] == [False, False]
        assert [r.manifest.cached for r in second] == [True, True]
        strip = lambda r: dataclasses.replace(r, manifest=None)
        assert [strip(r) for r in first] == [strip(r) for r in second]


class TestFastPathParityWithFaults:
    def test_quiescence_holds_with_campaign_active(self):
        # The injector is an always-on component and fault windows mutate
        # sleeping links; the fast-path digest must still match the
        # full-tick loop exactly.
        def attach(noc):
            FaultInjector(
                noc,
                [
                    FaultWindow(CORNER, start=200, duration=300, error_rate=0.4),
                    FaultWindow(CORNER, start=700, duration=150, mode="dead"),
                ],
            )

        digest = verify_fast_path(HARDENED, cycles=1500, rate=0.05, attach=attach)
        assert digest
