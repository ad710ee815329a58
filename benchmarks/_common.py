"""Shared helpers for the figure-reproduction benchmarks.

Every ``bench_*.py`` is a plain module whose ``main(runner)``
regenerates one figure: it computes the figure's rows, prints them,
writes them to ``benchmarks/results/`` (the timing benches S1, S2 and
S4 only print) and asserts the *shape* claims the paper makes
(orderings, growth, ranges).  ``python -m repro
figures`` calls every ``main`` with one shared
:class:`~repro.flow.runner.ExperimentRunner`; ``tests/test_figures.py``
checks the deterministic ones against their committed rows.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

FLIT_WIDTHS = (16, 32, 64, 128)


def emit(figure: str, lines: Iterable[str]) -> str:
    """Print a figure's rows and persist them under results/."""
    text = "\n".join(lines)
    print(f"\n{text}\n")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{figure}.txt")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")
    return text


def emit_json(name: str, payload: dict) -> str:
    """Persist a machine-readable benchmark record under results/.

    The textual ``emit`` rows are for humans; tooling that reads a
    curve's confidence intervals wants stable keys instead of parsing
    aligned columns.  Written with sorted keys so diffs of consecutive
    runs stay readable.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path
