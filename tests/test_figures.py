"""Every deterministic figure, checked in tier-1.

Each ``benchmarks/bench_*.py`` below exposes ``rows(runner) ->
(lines, data)`` and ``check_shape(*data)``.  Its rows must equal the
committed ``benchmarks/results/<name>.txt`` byte for byte, and its
shape claims must hold, so a model regression fails the test suite,
not only a ``python -m repro figures`` run.  A8 (a ~19 s replicated
load sweep) and the S1-S4 system benches (wall-clock timing, or a
slow sweep) run only under ``figures``.
"""

import functools
import importlib
import os

import pytest

from repro.flow.runner import ExperimentRunner

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "benchmarks", "results")

FIGURES = [
    "f1_ni_area", "f2_ni_power", "f3_switch_area", "f4_switch_power",
    "f5_mesh_case_study", "f6_freq_area_tradeoff", "f7_topology_tradeoffs",
    "f8_switch_latency", "f9_bus_vs_noc", "f10_error_control",
    "a1_buffer_depth", "a2_arbitration", "a3_flit_width",
    "a4_link_pipelining", "a5_crc_fidelity", "a6_energy",
    "a7_bus_hierarchies", "a9_design_space", "a10_flow_control",
]

#: Shape checks that have failed since the go-back-N rewind fix; their
#: triage is ROADMAP item 1(b).  The committed rows still match.
FAILING_SHAPES = {
    "a1_buffer_depth": "`data[2][1] > 1.5 * data[6][1]`: depth 2 rejects "
    "16 flits against 1.5 x 13 at depth 6 (ROADMAP 1(b))",
    "a2_arbitration": "`rr_spread < 1.2`: the round-robin latency spread "
    "is 1.35 (ROADMAP 1(b))",
    "a3_flit_width": "`min(products[0], products[-1]) > min(products)`: "
    "latency x area is lowest at flit 16 (ROADMAP 1(b))",
}


@functools.lru_cache(maxsize=None)
def figure(name):
    """The figure's module and what its ``rows`` computes (run once
    for both halves of the check)."""
    module = importlib.import_module(f"benchmarks.bench_{name}")
    lines, data = module.rows(ExperimentRunner())
    return module, lines, data


@pytest.mark.parametrize("name", FIGURES)
def test_rows_match_the_committed_results(name):
    _, lines, _ = figure(name)
    with open(os.path.join(RESULTS, f"{name}.txt"), encoding="utf-8") as f:
        committed = f.read()
    assert "\n".join(lines) + "\n" == committed, (
        f"{name} rows differ from benchmarks/results/{name}.txt; after an "
        "intended change, regenerate with `python -m repro figures`"
    )


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=FAILING_SHAPES[name]))
    if name in FAILING_SHAPES else name
    for name in FIGURES
])
def test_shape_claims_hold(name):
    module, _, data = figure(name)
    module.check_shape(*data)

