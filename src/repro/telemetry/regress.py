"""The perf gate: diff two ledger documents under ``BENCHMARK.json``.

``python3 benchmarks/ledger/run.py`` writes
``benchmarks/ledger/out/ledger.json``; ``benchmarks/ledger/baseline.json``
is the committed reference.  Both carry, per workload, the median and
the run-to-run spread of every end-to-end metric plus the count of
failed operations::

    {"end_to_end": {workload: {"metrics": {name: {"median", "spread", "n"}},
                               "attempted", "failed"}}}

``BENCHMARK.json``'s ``end_to_end`` list says, per metric, which
direction is ``better`` and how much worse the median may get
(``bound``, a share of the baseline) -- this module holds no threshold
of its own.  :func:`diff_metrics` gives one :class:`Row` per
(workload, metric) with a verdict:

* ``ok`` -- no worse than the baseline by more than the bound;
* ``REGRESSION`` -- worse by more than the bound;
* ``unresolved`` -- inside the bound, but one side's spread is wider
  than the bound, so the medians cannot carry the comparison;
* ``not comparable`` -- the workload or metric is absent on one side.

``python -m repro bench-diff`` (:func:`bench_diff`, ``make bench-diff``)
prints the table and exits 1 on any ``REGRESSION`` or when a workload's
share of failed operations rose, 2 when a file is missing or is not
what it should be, else 0.  It writes nothing: a new baseline is
``cp out/ledger.json baseline.json`` in a benchmark PR.
"""

import json
import math
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from repro.telemetry.registry import TelemetryError


class Row(NamedTuple):
    """One (workload, metric) comparison; ``worse_by`` is signed, a
    share of the baseline median, positive when the current is worse."""

    workload: str
    metric: str
    baseline: Optional[float]
    current: Optional[float]
    worse_by: Optional[float]
    bound: float
    verdict: str


def _number(x: Any) -> bool:
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def _end_to_end(path: str) -> Any:
    """The ``end_to_end`` member of the JSON document at ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["end_to_end"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise TelemetryError(
            f"{path}: no readable 'end_to_end' member ({exc})"
        ) from exc


def load_ledger(path: str) -> Dict[str, Any]:
    """The per-workload map of the ledger document at ``path``."""
    workloads = _end_to_end(path)
    try:
        ok = all(
            _number(row["failed"]) and _number(row["attempted"])
            and row["attempted"] > 0
            and all(_number(m["median"]) and _number(m["spread"])
                    for m in row["metrics"].values())
            for row in workloads.values()
        )
    except (TypeError, KeyError, AttributeError):
        ok = False
    if not ok:
        raise TelemetryError(f"{path}: not a ledger document")
    return workloads


def diff_metrics(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    end_to_end: Sequence[Dict[str, Any]],
) -> List[Row]:
    """Rows for every workload of either side x every ``end_to_end``
    metric (``{"name", "better", "bound"}``, as in ``BENCHMARK.json``)."""
    rows = []
    for workload in list(baseline) + [w for w in current if w not in baseline]:
        sides = [side.get(workload, {}).get("metrics", {})
                 for side in (baseline, current)]
        for spec in end_to_end:
            name, bound = spec["name"], spec["bound"]
            base, cur = (side.get(name) for side in sides)
            if base is None or cur is None or not base["median"]:
                rows.append(Row(workload, name, base and base["median"],
                                cur and cur["median"], None, bound,
                                "not comparable"))
                continue
            b, c = base["median"], cur["median"]
            worse = (c - b if spec["better"] == "lower" else b - c) / abs(b)
            if worse > bound:
                verdict = "REGRESSION"
            elif max(base["spread"], cur["spread"]) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(Row(workload, name, b, c, worse, bound, verdict))
    return rows


def _cell(value: Optional[float], spec: str) -> str:
    return "-" if value is None else format(value, spec)


def bench_diff(
    ledger_path: str, baseline_path: str, benchmark_path: str = "BENCHMARK.json"
) -> int:
    """The ``python -m repro bench-diff`` engine; returns the exit code."""
    try:
        current = load_ledger(ledger_path)
        baseline = load_ledger(baseline_path)
        end_to_end = _end_to_end(benchmark_path)
    except TelemetryError as exc:
        print(f"bench-diff: cannot compare: {exc}")
        return 2
    rows = diff_metrics(baseline, current, end_to_end)
    print(f"bench-diff: {ledger_path} against {baseline_path}")
    print(f"  {'workload':<16} {'metric':<12} {'baseline':>10} {'current':>10} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for r in rows:
        print(f"  {r.workload:<16} {r.metric:<12} {_cell(r.baseline, '.4g'):>10} "
              f"{_cell(r.current, '.4g'):>10} {_cell(r.worse_by, '+.1%'):>9} "
              f"{r.bound:>6.0%}  {r.verdict}")
    failures = [f"{r.workload} {r.metric} is {r.worse_by:.1%} worse "
                f"(bound {r.bound:.0%})"
                for r in rows if r.verdict == "REGRESSION"]
    for workload in (w for w in baseline if w in current):
        was, now = (side[workload]["failed"] / side[workload]["attempted"]
                    for side in (baseline, current))
        if now > was:
            failures.append(f"{workload} failed share rose {was:.4f} -> {now:.4f}")
    counts = {v: sum(r.verdict == v for r in rows)
              for v in ("ok", "REGRESSION", "unresolved", "not comparable")}
    print("bench-diff: " + ", ".join(f"{n} {v}" for v, n in counts.items() if n))
    if failures:
        print("bench-diff: FAIL --")
        for line in failures:
            print(f"  {line}")
        return 1
    print("bench-diff: OK -- no end-to-end metric regressed")
    return 0
