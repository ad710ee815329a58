"""Unit tests for network monitors."""

from repro.network.monitors import NetworkMonitor, utilization_report
from repro.network.noc import Noc, NocBuildConfig
from repro.network.topology import attach_round_robin, mesh
from repro.network.traffic import PermutationTraffic, UniformRandomTraffic


def monitored_noc(rate=0.15):
    topo = mesh(2, 2)
    cpus, mems = attach_round_robin(topo, 2, 2)
    noc = Noc(topo)
    monitor = NetworkMonitor(noc)
    noc.populate(
        {c: UniformRandomTraffic(mems, rate, seed=i) for i, c in enumerate(cpus)},
        max_transactions=40,
    )
    noc.run_until_drained(max_cycles=500_000)
    return noc, monitor


class TestNetworkMonitor:
    def test_observes_every_cycle(self):
        noc, monitor = monitored_noc()
        assert monitor.cycles_observed == noc.sim.cycle

    def test_queue_stats_cover_every_output(self):
        noc, monitor = monitored_noc()
        expected = sum(sw.config.n_outputs for sw in noc.switches.values())
        assert len(monitor.queue_stats) == expected

    def test_occupancy_bounded_by_depth(self):
        noc, monitor = monitored_noc()
        depth = noc.config.buffer_depth
        for q in monitor.queue_stats.values():
            assert 0 <= q.mean <= depth
            assert q.peak <= depth

    def test_traffic_shows_up_in_link_stats(self):
        noc, monitor = monitored_noc()
        stats = monitor.link_stats()
        assert sum(s.flits for s in stats) == noc.total_flits_carried()
        assert any(s.utilization > 0 for s in stats)
        assert all(0.0 <= s.utilization <= 1.0 for s in stats)

    def test_hottest_links_sorted(self):
        noc, monitor = monitored_noc()
        top = monitor.hottest_links(4)
        utils = [s.utilization for s in top]
        assert utils == sorted(utils, reverse=True)

    def test_nack_ratio_zero_without_contention(self):
        topo = mesh(1, 2)
        topo.add_initiator("cpu")
        topo.add_target("mem")
        topo.attach("cpu", "sw_0_0")
        topo.attach("mem", "sw_1_0")
        noc = Noc(topo)
        monitor = NetworkMonitor(noc)
        noc.populate(
            {"cpu": PermutationTraffic("mem", 0.02, seed=1)}, max_transactions=10
        )
        noc.run_until_drained(max_cycles=100_000)
        assert monitor.nack_ratio() == 0.0

    def test_nack_ratio_positive_under_contention(self):
        noc, monitor = monitored_noc(rate=0.3)
        assert monitor.nack_ratio() > 0.0

    def test_report_renders(self):
        noc, monitor = monitored_noc()
        text = utilization_report(monitor, top=3)
        assert "NACK ratio" in text
        assert "links by utilization" in text
        assert "output queues" in text


class TestFastPathEquivalence:
    """Occupancy sampling is activity-aware: identical statistics under
    the activity scheduler and the classical tick-everything loop."""

    def build(self, kernel, rate=0.12, cycles=1500):
        topo = mesh(2, 2)
        cpus, mems = attach_round_robin(topo, 2, 2)
        noc = Noc(topo, NocBuildConfig(kernel=kernel))
        monitor = NetworkMonitor(noc)
        noc.populate(
            {c: UniformRandomTraffic(mems, rate, seed=i) for i, c in enumerate(cpus)},
            max_transactions=25,
        )
        noc.run(cycles)
        monitor.flush()
        return noc, monitor

    def test_occupancy_identical_across_scheduling_modes(self):
        noc_full, mon_full = self.build("interpreted")
        for kernel in ("fast", "compiled"):
            noc_fast, mon_fast = self.build(kernel)
            # Same workload first: anything else invalidates the comparison.
            assert noc_fast.stats_digest() == noc_full.stats_digest()
            assert set(mon_fast.queue_stats) == set(mon_full.queue_stats)
            for name in mon_fast.queue_stats:
                a, b = mon_fast.queue_stats[name], mon_full.queue_stats[name]
                assert (a.samples, a.total, a.peak) == (b.samples, b.total, b.peak), name

    def test_every_cycle_accounted_under_fast_path(self):
        noc, monitor = self.build("compiled")
        assert noc.sim.ticks_skipped > 0, "the scheduler must actually skip"
        for q in monitor.queue_stats.values():
            assert q.samples == monitor.cycles_observed

    def test_monitor_attached_mid_run_counts_from_attachment(self):
        topo = mesh(2, 2)
        cpus, mems = attach_round_robin(topo, 2, 2)
        noc = Noc(topo)
        noc.populate(
            {c: UniformRandomTraffic(mems, 0.1, seed=i) for i, c in enumerate(cpus)},
            max_transactions=25,
        )
        noc.run(300)
        monitor = NetworkMonitor(noc)
        noc.run(200)
        monitor.flush()
        assert monitor.cycles_observed == 200
        for q in monitor.queue_stats.values():
            assert q.samples == 200
