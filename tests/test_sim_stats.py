"""Unit tests for simulation instrumentation."""

import math

import pytest

from repro.sim.stats import Counter, LatencySampler


class TestCounter:
    def test_increments(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.count == 5

    def test_reset(self):
        c = Counter("c")
        c.inc(3)
        c.reset()
        assert c.count == 0


class TestLatencySampler:
    def test_basic_sample(self):
        s = LatencySampler()
        s.start("a", 10)
        assert s.finish("a", 25) == 15
        assert s.samples == [15]

    def test_outstanding_tracking(self):
        s = LatencySampler()
        s.start("a", 0)
        s.start("b", 1)
        assert s.outstanding == 2
        s.finish("a", 5)
        assert s.outstanding == 1

    def test_finish_unknown_token_raises(self):
        s = LatencySampler()
        with pytest.raises(KeyError):
            s.finish("ghost", 3)

    def test_finish_unknown_token_error_is_descriptive(self):
        s = LatencySampler("ni.pkt_latency")
        s.start("open", 0)
        with pytest.raises(KeyError, match=r"ni\.pkt_latency.*'ghost'.*1 token"):
            s.finish("ghost", 3)

    def test_discard_forgets_without_recording(self):
        s = LatencySampler()
        s.start("a", 0)
        assert s.discard("a") is True
        assert s.outstanding == 0
        assert s.samples == []
        with pytest.raises(KeyError, match="discarded"):
            s.finish("a", 5)

    def test_discard_unknown_token_is_false(self):
        assert LatencySampler().discard("never-started") is False

    def test_mean_min_max(self):
        s = LatencySampler()
        for i, (b, e) in enumerate([(0, 10), (0, 20), (0, 30)]):
            s.start(i, b)
            s.finish(i, e)
        assert s.mean() == 20
        assert s.minimum() == 10
        assert s.maximum() == 30

    def test_mean_of_empty_is_nan(self):
        assert math.isnan(LatencySampler().mean())

    def test_percentile_interpolates(self):
        s = LatencySampler()
        s.samples.extend([10, 20, 30, 40])
        assert s.percentile(0) == 10
        assert s.percentile(100) == 40
        assert s.percentile(50) == 25

    def test_percentile_single_sample(self):
        s = LatencySampler()
        s.samples.append(42)
        assert s.percentile(99) == 42

    def test_percentile_empty_is_nan(self):
        assert math.isnan(LatencySampler().percentile(50))

    def test_reset(self):
        s = LatencySampler()
        s.start("a", 0)
        s.samples.append(5)
        s.reset()
        assert s.outstanding == 0
        assert s.count == 0

    def test_histogram_buckets(self):
        s = LatencySampler()
        s.samples.extend([1, 9, 10, 11, 25, 25])
        assert s.histogram(bin_width=10) == {0: 2, 10: 2, 20: 2}

    def test_histogram_sorted_keys(self):
        s = LatencySampler()
        s.samples.extend([35, 5, 15])
        assert list(s.histogram(10)) == [0, 10, 30]

    def test_histogram_invalid_width(self):
        with pytest.raises(ValueError):
            LatencySampler().histogram(0)
