"""Property: how a point list is cut into rows changes who runs what,
never what is returned or stored.

For any partition of one point list into rows (empty rows included),
``map_rows`` inline and on the pool returns ``fn`` of every point in
its place, and the store ends up with exactly one record per distinct
point -- the row is the unit of farm work, the point the unit of keying
and storage.
"""

import tempfile

from hypothesis import given, settings, strategies as st

from repro.flow.keying import point_keys
from repro.flow.runner import ExperimentRunner
from repro.store import ResultStore


def _cube(x):
    return x ** 3


@st.composite
def partitions(draw):
    points = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=12, unique=True))
    cuts = sorted(draw(st.lists(st.integers(0, len(points)), max_size=5)))
    bounds = [0] + cuts + [len(points)]
    return points, [points[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=12, deadline=None)
@given(partitions())
def test_any_partition_returns_and_stores_the_same(partition):
    points, rows = partition
    expected = [[_cube(p) for p in row] for row in rows]
    for jobs in (1, 2):
        with tempfile.TemporaryDirectory() as root:
            runner = ExperimentRunner(store=ResultStore(root), jobs=jobs)
            assert runner.map_rows(_cube, rows) == expected
            assert sorted(runner.store.keys()) == sorted(point_keys(_cube, points))
            assert runner.store.puts == len(points) == len(runner.reports)
            # Asked again, flat: every point is a hit under the same key.
            assert runner.map(_cube, points) == [_cube(p) for p in points]
            assert runner.cache_hits == len(points) and runner.store.puts == len(points)
