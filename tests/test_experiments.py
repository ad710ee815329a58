"""Unit tests for the load-sweep measurement methodology."""

import pytest

from repro.flow.runner import CACHE_VERSION, ExperimentRunner
from repro.network.experiments import (
    LoadPoint,
    TopologyNocBuilder,
    load_sweep,
    render_sweep,
    saturation_rate,
)
from repro.network.noc import Noc
from repro.network.topology import attach_round_robin, mesh
from repro.store import ResultStore


def small_builder():
    def build():
        topo = mesh(2, 2)
        attach_round_robin(topo, 2, 2)
        return Noc(topo)

    return build


class TestLoadSweep:
    def test_points_match_rates(self):
        pts = load_sweep(small_builder(), [0.02, 0.1], warmup_cycles=200,
                         measure_cycles=600)
        assert [p.offered_rate for p in pts] == [0.02, 0.1]
        assert all(p.completed > 0 for p in pts)

    def test_accepted_rate_grows_with_offered(self):
        pts = load_sweep(small_builder(), [0.01, 0.1], warmup_cycles=200,
                         measure_cycles=1000)
        assert pts[1].accepted_rate > pts[0].accepted_rate

    def test_warmup_samples_excluded(self):
        """All-warmup runs yield empty measurement windows gracefully."""
        pts = load_sweep(small_builder(), [0.0], warmup_cycles=100,
                         measure_cycles=100)
        assert pts[0].completed == 0
        assert pts[0].mean_latency == float("inf")

    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            load_sweep(small_builder(), [0.1], warmup_cycles=-1)
        with pytest.raises(ValueError):
            load_sweep(small_builder(), [0.1], measure_cycles=0)

    def test_builder_must_provide_cores(self):
        def build():
            topo = mesh(2, 2)
            # Only a target attached: no initiators to drive traffic.
            topo.add_target("mem")
            topo.attach("mem", "sw_0_0")
            return Noc(topo)

        with pytest.raises(ValueError, match="initiators"):
            load_sweep(build, [0.1])

    def test_deterministic_for_seed(self):
        a = load_sweep(small_builder(), [0.05], warmup_cycles=100,
                       measure_cycles=500, seed=9)
        b = load_sweep(small_builder(), [0.05], warmup_cycles=100,
                       measure_cycles=500, seed=9)
        assert a == b


class TestManifests:
    def test_inline_sweep_attaches_timed_manifests(self):
        pts = load_sweep(small_builder(), [0.02], warmup_cycles=100,
                         measure_cycles=300)
        m = pts[0].manifest
        assert m is not None
        assert m.cached is False and m.seconds > 0
        assert m.key == ""  # inline points have no cache identity

    def test_runner_sweep_manifests_surface_cache_state(self, tmp_path):
        import repro

        builder = TopologyNocBuilder(mesh, (2, 2), n_initiators=2, n_targets=2)
        runner = ExperimentRunner(store=ResultStore(str(tmp_path)))
        first = load_sweep(builder, [0.05], warmup_cycles=100,
                           measure_cycles=300, runner=runner)
        m1 = first[0].manifest
        assert m1.cached is False and m1.key and m1.seconds > 0
        assert m1.repro_version == repro.__version__
        assert m1.cache_version == CACHE_VERSION
        second = load_sweep(builder, [0.05], warmup_cycles=100,
                            measure_cycles=300, runner=runner)
        m2 = second[0].manifest
        assert m2.cached is True and m2.key == m1.key and m2.seconds == 0.0
        # Provenance rides along without breaking point equality.
        assert second[0] == first[0]


class TestHelpers:
    def make_points(self, latencies):
        return [
            LoadPoint(offered_rate=0.01 * (i + 1), accepted_rate=0.1,
                      mean_latency=l, p95_latency=l * 2, completed=10)
            for i, l in enumerate(latencies)
        ]

    def test_saturation_rate_finds_knee(self):
        pts = self.make_points([10, 11, 12, 40])
        assert saturation_rate(pts, knee_factor=3.0) == pytest.approx(0.04)

    def test_saturation_rate_none_when_flat(self):
        pts = self.make_points([10, 11, 12])
        assert saturation_rate(pts) is None

    def test_saturation_rate_empty(self):
        assert saturation_rate([]) is None

    def test_render(self):
        text = render_sweep(self.make_points([10, 20]), title="T")
        assert text.startswith("T")
        assert "offered" in text and "0.010" in text
