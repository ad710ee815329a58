"""Property: the Pareto scan that skips a point's self by identity
returns exactly what the all-pairs scan by value returned.

``pareto_frontier`` value-dedups its input before the scan, so no two
entries it compares are equal and ``q is not p`` is the same test as
``q != p``.  The oracle below is the value-comparing body, verbatim.
Point lists are drawn to hit the edges of that argument: the same
object repeated, value-equal copies, equal latency / area / power under
different names, infeasible points and +-inf metrics.
"""

import dataclasses
import math

from hypothesis import given, settings, strategies as st

from repro.flow.dse import DesignPoint, pareto_frontier


def _all_pairs_frontier(points):
    unique = list(dict.fromkeys(points))  # value-dedup, order preserved
    frontier = [
        p for p in unique if not any(q.dominates(p) for q in unique if q != p)
    ]
    frontier.sort(key=lambda p: (p.latency_ns, p.area_mm2))
    return frontier


_METRIC = st.sampled_from([-math.inf, 0.0, 1.0, 2.0, math.inf])

_POINT = st.builds(
    DesignPoint,
    topology_name=st.sampled_from(["mesh2x2", "ring4", "star4"]),
    flit_width=st.sampled_from([16, 32]),
    buffer_depth=st.just(4),
    latency_ns=_METRIC,
    area_mm2=_METRIC,
    power_mw=_METRIC,
    freq_mhz=st.just(1000.0),
    feasible=st.booleans(),
)


@st.composite
def point_lists(draw):
    """Distinct draws, then repeats of them: some the same object, some
    a value-equal copy, all shuffled together."""
    base = draw(st.lists(_POINT, min_size=1, max_size=10))
    repeats = draw(st.lists(
        st.tuples(st.integers(0, len(base) - 1), st.booleans()), max_size=12
    ))
    points = base + [
        dataclasses.replace(base[i]) if copy else base[i] for i, copy in repeats
    ]
    return draw(st.permutations(points))


@settings(max_examples=400, deadline=None)
@given(point_lists())
def test_identity_scan_returns_the_value_scan_objects_in_order(points):
    got = pareto_frontier(points)
    expected = _all_pairs_frontier(points)
    assert len(got) == len(expected)
    assert all(a is b for a, b in zip(got, expected))
