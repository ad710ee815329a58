"""Perf-regression tracking over the committed BENCH_*.json artifacts.

``benchmarks/results/BENCH_s{1,3,4}.json`` / ``BENCH_a8.json`` record
what the measurement stack produced, but nothing watched their *trend*
-- a 2x compiled-kernel slowdown would land silently as a new number.
This module tracks a small set of named **ratios** (higher is better)
extracted from those documents and diffs them against the committed
trajectory file ``BENCH_TRAJECTORY.json`` at the repo root:

* :func:`collect_metrics` pulls the tracked values out of a results
  directory (missing files simply contribute nothing, so a partial
  bench run still diffs what it produced);
* :func:`diff_metrics` compares against the trajectory's last entry
  and flags any tracked metric whose relative drop exceeds the
  threshold (default 20%);
* ``python -m repro bench-diff`` is the CLI (wired into ``make
  bench-smoke``); ``--update`` appends the current values as a new
  trajectory entry unless they equal the last entry's.

The trajectory file is versioned (``repro.telemetry.regress/v1``) and
append-only: entries are kept in order, so the committed file is a
perf history the next PR can extend.
"""

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.registry import TelemetryError

REGRESS_SCHEMA = "repro.telemetry.regress/v1"

TRAJECTORY_BASENAME = "BENCH_TRAJECTORY.json"

#: Default relative drop that fails the diff (0.20 = 20%).
DEFAULT_THRESHOLD = 0.20


@dataclass(frozen=True)
class TrackedMetric:
    """One named higher-is-better value extracted from a BENCH doc.

    ``path`` walks into the JSON; ``ratio_to`` (optional) names a
    second path whose value divides the first -- e.g. bench_s4's
    per-replica speedup is scalar seconds over batch seconds.
    """

    name: str
    source: str  # BENCH file basename, e.g. "BENCH_s1.json"
    path: Tuple[str, ...]
    ratio_to: Optional[Tuple[str, ...]] = None
    help: str = ""


TRACKED: Tuple[TrackedMetric, ...] = (
    TrackedMetric(
        "s1_compiled_over_fast_standard", "BENCH_s1.json",
        ("points", "standard", "speedup", "compiled_over_fast"),
        help="compiled-kernel speedup over the fast path, standard load",
    ),
    TrackedMetric(
        "s1_compiled_over_fast_sparse", "BENCH_s1.json",
        ("points", "sparse", "speedup", "compiled_over_fast"),
        help="compiled-kernel speedup over the fast path, sparse load",
    ),
    TrackedMetric(
        "s1_compiled_over_fast_idle", "BENCH_s1.json",
        ("points", "idle", "speedup", "compiled_over_fast"),
        help="compiled-kernel speedup over the fast path, idle-heavy load",
    ),
    TrackedMetric(
        "s4_per_replica_speedup", "BENCH_s4.json",
        ("scalar", "seconds_per_run"),
        ratio_to=("batch", "seconds_per_lane"),
        help="batched Monte-Carlo speedup per replica lane",
    ),
    TrackedMetric(
        "s4_ticks_skipped_fraction", "BENCH_s4.json",
        ("batch", "ticks_skipped_fraction_last_lane"),
        help="idle-span skipping effectiveness on the batch workload",
    ),
)


@dataclass(frozen=True)
class Regression:
    """One tracked metric that dropped past the threshold."""

    name: str
    baseline: float
    current: float
    change: float  # signed relative change; regressions are negative

    def describe(self) -> str:
        return (
            f"{self.name}: {self.baseline:.4g} -> {self.current:.4g} "
            f"({self.change:+.1%})"
        )


def _walk(doc: Any, path: Tuple[str, ...]) -> Optional[float]:
    node = doc
    for part in path:
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def collect_metrics(
    results_dir: str, tracked: Sequence[TrackedMetric] = TRACKED
) -> Dict[str, float]:
    """Extract every tracked value present under ``results_dir``."""
    out: Dict[str, float] = {}
    docs: Dict[str, Any] = {}
    for metric in tracked:
        if metric.source not in docs:
            path = os.path.join(results_dir, metric.source)
            try:
                with open(path, encoding="utf-8") as fh:
                    docs[metric.source] = json.load(fh)
            except (OSError, ValueError):
                docs[metric.source] = None
        doc = docs[metric.source]
        if doc is None:
            continue
        value = _walk(doc, metric.path)
        if value is None:
            continue
        if metric.ratio_to is not None:
            denom = _walk(doc, metric.ratio_to)
            if denom is None or denom == 0:
                continue
            value = value / denom
        out[metric.name] = value
    return out


# ---------------------------------------------------------------------------
# trajectory file


def load_trajectory(path: str) -> Dict[str, Any]:
    """Load (and schema-check) a trajectory document."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != REGRESS_SCHEMA:
        raise TelemetryError(
            f"{path}: not a {REGRESS_SCHEMA!r} trajectory document"
        )
    entries = doc.get("entries")
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and isinstance(e.get("metrics"), dict)
        for e in entries
    ):
        raise TelemetryError(f"{path}: entries must be a list of metric maps")
    return doc


def new_trajectory() -> Dict[str, Any]:
    return {"schema": REGRESS_SCHEMA, "entries": []}


def append_entry(
    doc: Dict[str, Any], metrics: Dict[str, float], note: str = ""
) -> Dict[str, Any]:
    entry: Dict[str, Any] = {"metrics": dict(metrics)}
    if note:
        entry["note"] = note
    doc["entries"].append(entry)
    return doc


def save_trajectory(path: str, doc: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def baseline_metrics(doc: Dict[str, Any]) -> Dict[str, float]:
    """The most recent entry's metric map (empty for a new file).

    Only finite numbers survive: a hand-edited or partially-written
    entry may hold nulls, strings or nested maps where a ratio should
    be, and a missing tracked ratio must degrade to "not comparable",
    never crash the diff."""
    entries = doc.get("entries") or []
    if not entries:
        return {}
    metrics = entries[-1].get("metrics") or {}
    out: Dict[str, float] = {}
    for k, v in metrics.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            continue
        value = float(v)
        if value == value and value not in (float("inf"), float("-inf")):
            out[k] = value
    return out


# ---------------------------------------------------------------------------
# diffing


def diff_metrics(
    baseline: Dict[str, float],
    current: Dict[str, float],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[Regression]:
    """Tracked metrics whose relative drop exceeds ``threshold``.

    All tracked metrics are higher-is-better; a metric absent on either
    side is not comparable and never flags (a partial bench run must
    not fail on what it did not measure).
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    regressions: List[Regression] = []
    for name in sorted(baseline):
        if name not in current:
            continue
        base, cur = baseline[name], current[name]
        if base <= 0:
            continue
        change = (cur - base) / base
        if change < -threshold:
            regressions.append(Regression(name, base, cur, change))
    return regressions


def render_diff(
    baseline: Dict[str, float],
    current: Dict[str, float],
    regressions: Sequence[Regression],
    threshold: float,
) -> str:
    """The bench-diff report table."""
    flagged = {r.name for r in regressions}
    lines = [
        f"bench-diff: threshold {threshold:.0%} relative drop "
        f"({len(current)} tracked metrics, {len(baseline)} baselined)"
    ]
    lines.append(f"  {'metric':<34} {'baseline':>10} {'current':>10} {'change':>8}")
    for name in sorted(set(baseline) | set(current)):
        base, cur = baseline.get(name), current.get(name)
        if base is None or cur is None:
            mark = "  (not comparable)"
            bs = f"{base:.4g}" if base is not None else "-"
            cs = f"{cur:.4g}" if cur is not None else "-"
            lines.append(f"  {name:<34} {bs:>10} {cs:>10} {'-':>8}{mark}")
            continue
        change = (cur - base) / base if base > 0 else 0.0
        mark = "  REGRESSION" if name in flagged else ""
        lines.append(
            f"  {name:<34} {base:>10.4g} {cur:>10.4g} {change:>+8.1%}{mark}"
        )
    return "\n".join(lines)


def bench_diff(
    results_dir: str,
    trajectory_path: str,
    threshold: float = DEFAULT_THRESHOLD,
    update: bool = False,
    note: str = "",
) -> int:
    """The ``python -m repro bench-diff`` engine.  Returns the exit
    code: 0 clean, 1 on any regression, 2 when there is nothing to
    compare (no trajectory and no ``--update``)."""
    current = collect_metrics(results_dir)
    if not os.path.exists(trajectory_path):
        if not update:
            print(
                f"bench-diff: no trajectory at {trajectory_path}; run with "
                f"--update to record the first entry"
            )
            return 2
        doc = new_trajectory()
        append_entry(doc, current, note=note)
        save_trajectory(trajectory_path, doc)
        print(
            f"bench-diff: recorded first trajectory entry "
            f"({len(current)} metrics) at {trajectory_path}"
        )
        return 0
    try:
        doc = load_trajectory(trajectory_path)
    except (TelemetryError, ValueError, OSError) as exc:
        # An unreadable/foreign trajectory is "no baseline", not a
        # crash: the diff cannot gate on it, so warn and pass.
        print(f"bench-diff: WARNING: unusable trajectory: {exc}")
        if update:
            doc = new_trajectory()
            append_entry(doc, current, note=note)
            save_trajectory(trajectory_path, doc)
            print(
                f"bench-diff: restarted trajectory "
                f"({len(current)} metrics) at {trajectory_path}"
            )
        else:
            print("bench-diff: OK -- nothing to compare against")
        return 0
    baseline = baseline_metrics(doc)
    if not baseline:
        print(
            f"bench-diff: WARNING: no usable baseline metrics in the "
            f"last entry of {trajectory_path}; nothing to compare"
        )
    regressions = diff_metrics(baseline, current, threshold)
    print(render_diff(baseline, current, regressions, threshold))
    if regressions:
        print("bench-diff: FAIL --")
        for r in regressions:
            print(f"  {r.describe()}")
        return 1
    if update and current == baseline:
        # Re-running over unchanged BENCH files is not a new data point;
        # a trajectory of identical entries is no trajectory at all.
        print("bench-diff: OK -- metrics unchanged, nothing appended")
    elif update:
        append_entry(doc, current, note=note)
        save_trajectory(trajectory_path, doc)
        print(
            f"bench-diff: OK -- appended entry #{len(doc['entries'])} "
            f"to {trajectory_path}"
        )
    else:
        print("bench-diff: OK -- no tracked metric regressed")
    return 0
