"""Order statistics for the ledger: medians, the honest tail, spreads."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

#: Percentiles a tail may be reported at, highest first.
_TAILS = (99.0, 95.0, 90.0, 75.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation: every reported value
    is one that was measured)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil
    return ordered[int(rank) - 1]


median = statistics.median


def supported_tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(pct, value, n)`` for the highest percentile that still has at
    least ten samples beyond it -- p99 needs n >= 1000, p90 n >= 100.
    Below 40 samples nothing past the median qualifies and the median
    is returned as ``pct == 50``."""
    n = len(values)
    for pct in _TAILS:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct), n
    return 50.0, median(values), n


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median -- the spread the benchmark contract is judged on."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def range_share(values: Sequence[float]) -> float:
    """``(max - min) / median``: the spread printed beside a median of
    a few repeats, where quartiles mean nothing."""
    mid = statistics.median(values)
    return (max(values) - min(values)) / abs(mid) if mid else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    if not first:
        return 0.0
    gap = (second - first) / abs(first)
    return gap if better == "lower" else -gap
