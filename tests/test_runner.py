"""ExperimentRunner: caching, parallelism, and stable cache keys."""

import dataclasses
import enum
import functools

import pytest

from repro.flow.runner import (
    CACHE_VERSION,
    ExperimentRunner,
    RunManifest,
    point_key,
    stable_repr,
)
from repro.network.topology import mesh


def _square(x):
    """Module-level so worker processes can unpickle it."""
    return x * x


def _boom(x):
    raise ValueError(f"point {x} exploded")


class TestMap:
    def test_sequential_matches_list_comprehension(self):
        runner = ExperimentRunner()
        assert runner.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert runner.cache_hits == 0 and runner.cache_misses == 3

    def test_parallel_preserves_input_order(self):
        runner = ExperimentRunner(jobs=2)
        assert runner.map(_square, list(range(8))) == [x * x for x in range(8)]

    def test_reports_one_entry_per_point(self):
        runner = ExperimentRunner()
        runner.map(_square, [5, 6], label="sq")
        labels = [r.label for r in runner.reports]
        assert labels == ["sq[0]", "sq[1]"]
        assert all(not r.cached for r in runner.reports)
        assert "sq[0]" in runner.render_report()

    def test_worker_exception_propagates(self):
        runner = ExperimentRunner(jobs=2)
        with pytest.raises(ValueError, match="exploded"):
            runner.map(_boom, [1])


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path))
        first = runner.map(_square, [3, 4])
        assert (runner.cache_hits, runner.cache_misses) == (0, 2)
        second = runner.map(_square, [3, 4])
        assert (runner.cache_hits, runner.cache_misses) == (2, 2)
        assert first == second
        # A hit leaves no report: it is counted, manifested and said so
        # in the header, and a long-lived runner retains nothing for it.
        assert [r.cached for r in runner.reports] == [False, False]
        assert runner.cache_hits == 2
        assert [m.cached for m in runner.last_manifests] == [True, True]
        assert "hits=2" in runner.render_report()

    def test_cache_survives_runner_instances(self, tmp_path):
        ExperimentRunner(cache_dir=str(tmp_path)).map(_square, [9])
        fresh = ExperimentRunner(cache_dir=str(tmp_path))
        assert fresh.map(_square, [9]) == [81]
        assert fresh.cache_hits == 1

    def test_different_args_miss(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path))
        runner.map(_square, [3])
        runner.map(_square, [4])
        assert runner.cache_hits == 0

    def test_different_functions_do_not_collide(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path))
        runner.map(_square, [3])
        assert runner.map(abs, [3]) == [3]  # not 9 served from _square's entry
        assert runner.cache_hits == 0

    def test_salt_invalidates(self, tmp_path):
        ExperimentRunner(cache_dir=str(tmp_path)).map(_square, [3])
        salted = ExperimentRunner(cache_dir=str(tmp_path), salt="rev2")
        salted.map(_square, [3])
        assert salted.cache_misses == 1 and salted.cache_hits == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path))
        runner.map(_square, [3])
        record = runner.store.record_path(point_key(_square, 3))
        with open(record, "wb") as f:
            f.write(b"not a record")
        again = ExperimentRunner(cache_dir=str(tmp_path))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert again.map(_square, [3]) == [9]
        assert again.cache_misses == 1
        assert again.corrupt_cache_entries == 1

    def test_parallel_runs_populate_the_cache(self, tmp_path):
        runner = ExperimentRunner(jobs=2, cache_dir=str(tmp_path))
        runner.map(_square, [1, 2, 3])
        sequential = ExperimentRunner(cache_dir=str(tmp_path))
        assert sequential.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert sequential.cache_hits == 3


class TestHitsRetainNothing:
    def test_all_hit_maps_do_not_grow_the_runner(self, tmp_path):
        import tracemalloc

        runner = ExperimentRunner(cache_dir=str(tmp_path))
        points = list(range(16))
        runner.map(_square, points, label="warm")
        executed = len(runner.reports)
        assert executed == len(points)
        for _ in range(5):  # settle allocator / import one-offs
            runner.map(_square, points, label="warm")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(300):
                assert runner.map(_square, points, label="warm") == [
                    x * x for x in points
                ]
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert runner.cache_hits == 305 * len(points)
        assert len(runner.reports) == executed
        # 4800 hits; the parent kept ~300 B for each (1.4 MB here).
        assert grown < 64 * 1024


class TestManifests:
    def test_map_records_one_manifest_per_point_in_order(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path))
        runner.map(_square, [3, 4])
        assert len(runner.last_manifests) == 2
        assert [m.cached for m in runner.last_manifests] == [False, False]
        keys = [m.key for m in runner.last_manifests]
        assert keys[0] != keys[1]
        runner.map(_square, [3, 4])
        assert [m.cached for m in runner.last_manifests] == [True, True]
        assert [m.key for m in runner.last_manifests] == keys
        assert all(m.seconds == 0.0 for m in runner.last_manifests)

    def test_manifest_pins_library_state(self):
        import repro

        runner = ExperimentRunner()
        runner.map(_square, [2])
        m = runner.last_manifests[0]
        assert m.repro_version == repro.__version__
        assert m.cache_version == CACHE_VERSION
        assert m.seconds >= 0.0

    def test_manifests_reset_per_map_call(self):
        runner = ExperimentRunner()
        runner.map(_square, [1, 2, 3])
        runner.map(_square, [9])
        assert len(runner.last_manifests) == 1

    def test_parallel_map_still_manifests_in_order(self, tmp_path):
        runner = ExperimentRunner(jobs=2, cache_dir=str(tmp_path))
        runner.map(_square, [1, 2, 3])
        assert len(runner.last_manifests) == 3
        assert all(isinstance(m, RunManifest) for m in runner.last_manifests)
        assert all(not m.cached for m in runner.last_manifests)


class TestFromEnv:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        runner = ExperimentRunner.from_env()
        assert runner.jobs == 1 and runner.cache_dir is None

    def test_garbage_jobs_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            ExperimentRunner.from_env()

    def test_reads_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        runner = ExperimentRunner.from_env()
        assert runner.jobs == 4 and runner.cache_dir == str(tmp_path)


class _Color(enum.Enum):
    RED = 1
    BLUE = 2


@dataclasses.dataclass
class _Cfg:
    depth: int
    label: str


class _Token:
    def __init__(self, value):
        self.value = value

    def cache_token(self):
        return ("_Token", self.value)


class TestStableRepr:
    def test_primitives_round_trip(self):
        assert stable_repr(3) != stable_repr("3")
        assert stable_repr(0.1) == stable_repr(0.1)
        assert stable_repr(True) != stable_repr(1)

    def test_dict_order_is_canonical(self):
        assert stable_repr({"a": 1, "b": 2}) == stable_repr({"b": 2, "a": 1})

    def test_set_order_is_canonical(self):
        assert stable_repr({3, 1, 2}) == stable_repr({2, 3, 1})

    def test_dataclass_by_fields(self):
        assert stable_repr(_Cfg(4, "x")) == stable_repr(_Cfg(4, "x"))
        assert stable_repr(_Cfg(4, "x")) != stable_repr(_Cfg(6, "x"))

    def test_enum_by_name(self):
        assert "_Color.RED" in stable_repr(_Color.RED)

    def test_callable_by_qualname_not_address(self):
        assert stable_repr(_square) == stable_repr(_square)
        assert "0x" not in stable_repr(_square)
        assert stable_repr(_square) != stable_repr(_boom)

    def test_partial_includes_bound_arguments(self):
        a = functools.partial(_square, 2)
        b = functools.partial(_square, 3)
        assert stable_repr(a) != stable_repr(b)

    def test_cache_token_is_honoured(self):
        assert stable_repr(_Token(1)) == stable_repr(_Token(1))
        assert stable_repr(_Token(1)) != stable_repr(_Token(2))

    def test_topology_token_distinguishes_shapes(self):
        assert stable_repr(mesh(2, 2)) != stable_repr(mesh(3, 3))
        assert stable_repr(mesh(2, 2)) == stable_repr(mesh(2, 2))

    def test_opaque_fallback_is_type_only(self):
        class Opaque:
            pass

        # Documented limitation: value-carrying objects without
        # cache_token() collide by design -- the repr is type identity.
        assert stable_repr(Opaque()) == stable_repr(Opaque())
        assert "Opaque" in stable_repr(Opaque())

    def test_salt_and_version_feed_the_key(self):
        assert isinstance(CACHE_VERSION, int)
        k1 = point_key(_square, 3)
        k2 = point_key(_square, 3, salt="s")
        assert k1 != k2


def _make_adder(n):
    def add(x):
        return x + n

    return add


class TestKeyableGuard:
    """Cached runs must refuse functions whose stable_repr collides."""

    def test_closures_with_different_cells_share_a_key(self):
        """The collision the guard exists for: stable_repr hashes
        callables by qualname, so these two semantically different
        functions would silently share every cache record."""
        add1, add2 = _make_adder(1), _make_adder(1000)
        assert add1(1) != add2(1)
        assert stable_repr(add1) == stable_repr(add2)
        assert point_key(add1, 5) == point_key(add2, 5)

    def test_lambda_rejected_when_caching(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path / "cache"))
        with pytest.raises(ValueError, match="lambda"):
            runner.map(lambda x: x, [1])

    def test_closure_rejected_when_caching(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path / "cache"))
        with pytest.raises(ValueError, match="closure"):
            runner.map(_make_adder(3), [1])

    def test_closure_rejected_when_storing(self, tmp_path):
        from repro.store import ResultStore

        runner = ExperimentRunner(store=ResultStore(tmp_path / "store"))
        with pytest.raises(ValueError, match="captured"):
            runner.map(_make_adder(3), [1])

    def test_partial_over_named_function_is_fine(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path / "cache"))
        assert runner.map(functools.partial(_square), [3]) == [9]

    def test_partial_over_lambda_still_rejected(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path / "cache"))
        with pytest.raises(ValueError, match="lambda"):
            runner.map(functools.partial(lambda x: x), [1])

    def test_uncached_runner_still_accepts_lambdas(self):
        """Without a cache the key is only a reporting label; refusing
        lambdas there would break exploratory use for no protection."""
        assert ExperimentRunner().map(lambda x: x + 1, [1, 2]) == [2, 3]
