"""Simulation instrumentation: latency samples and counters.

These are the measurements behind the paper's performance claims
(per-hop latency of the 2-stage switch, accepted throughput under
unreliable links, bus-vs-NoC saturation).
"""

from __future__ import annotations

import math
from typing import Dict, List


class Counter:
    """A named monotonically increasing event counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0

    def inc(self, by: int = 1) -> None:
        self.count += by

    def reset(self) -> None:
        self.count = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.count})"


class LatencySampler:
    """Collects start/finish timestamps keyed by a token (txn id).

    ``start(token, cycle)`` then ``finish(token, cycle)`` records one
    latency sample.  Summary statistics are computed on demand.
    """

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self._open: Dict[object, int] = {}
        self.samples: List[int] = []

    def start(self, token: object, cycle: int) -> None:
        self._open[token] = cycle

    def finish(self, token: object, cycle: int) -> int:
        try:
            begin = self._open.pop(token)
        except KeyError:
            raise KeyError(
                f"sampler {self.name!r}: finish() for unknown token {token!r} "
                f"(never started, already finished, or discarded); "
                f"{len(self._open)} token(s) outstanding"
            ) from None
        sample = cycle - begin
        self.samples.append(sample)
        return sample

    def discard(self, token: object) -> bool:
        """Forget an in-flight token without recording a sample.

        The bookkeeping for dropped packets: a transaction that will
        never finish must not linger in ``outstanding`` forever, nor
        poison the statistics with a bogus latency.  Returns whether the
        token was actually open.
        """
        return self._open.pop(token, None) is not None

    @property
    def outstanding(self) -> int:
        """Transactions started but not yet finished."""
        return len(self._open)

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        if not self.samples:
            return math.nan
        return sum(self.samples) / len(self.samples)

    def minimum(self) -> int:
        return min(self.samples)

    def maximum(self) -> int:
        return max(self.samples)

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, ``p`` in [0, 100]."""
        if not self.samples:
            return math.nan
        data = sorted(self.samples)
        if len(data) == 1:
            return float(data[0])
        rank = (p / 100.0) * (len(data) - 1)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        if lo == hi:
            return float(data[lo])
        frac = rank - lo
        return data[lo] * (1 - frac) + data[hi] * frac

    def histogram(self, bin_width: int = 10):
        """Samples bucketed by ``bin_width`` cycles: {bin start: count}.

        Useful for spotting bimodal latency (e.g. retransmission tails)
        that the mean hides.
        """
        if bin_width < 1:
            raise ValueError("bin_width must be >= 1")
        out = {}
        for s in self.samples:
            b = (s // bin_width) * bin_width
            out[b] = out.get(b, 0) + 1
        return dict(sorted(out.items()))

    def reset(self) -> None:
        self._open.clear()
        self.samples.clear()
