"""Synthetic traffic patterns.

A pattern decides, cycle by cycle, whether an OCP master injects a new
transaction and what it looks like.  Patterns speak in terms of *target
names* and in-region offsets; the master converts them to MAddr values
through the NoC's address map.

The classic NoC evaluation patterns are provided: uniform random,
hotspot, fixed permutation, and fully scripted sequences (used by the
application-graph workloads in :mod:`repro.flow`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class TxnTemplate:
    """A transaction the pattern wants injected."""

    target: str
    offset: int = 0
    is_read: bool = True
    burst_len: int = 1
    thread_id: int = 0


class TrafficPattern:
    """Interface: one pattern instance drives one master."""

    def next_transaction(self, cycle: int) -> Optional[TxnTemplate]:
        """Called every cycle the master has an issue slot free.

        Return a template to inject this cycle, or ``None`` to idle.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Restart the pattern's internal state (rng, script position)."""


class UniformRandomTraffic(TrafficPattern):
    """Bernoulli injection at ``rate`` to uniformly random targets."""

    def __init__(
        self,
        targets: Sequence[str],
        rate: float,
        read_fraction: float = 0.5,
        burst_len: int = 1,
        max_offset: int = 256,
        seed: int = 0,
    ) -> None:
        if not targets:
            raise ValueError("need at least one target")
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        self.targets = list(targets)
        self.rate = rate
        self.read_fraction = read_fraction
        self.burst_len = burst_len
        self.max_offset = max_offset
        self._seed = seed
        self._rng = random.Random(seed)

    def reset(self) -> None:
        self._rng = random.Random(self._seed)

    def next_transaction(self, cycle: int) -> Optional[TxnTemplate]:
        if self._rng.random() >= self.rate:
            return None
        return TxnTemplate(
            target=self._rng.choice(self.targets),
            offset=self._rng.randrange(self.max_offset),
            is_read=self._rng.random() < self.read_fraction,
            burst_len=self.burst_len,
        )

    def _next_transaction_predrawn(self, cycle: int) -> TxnTemplate:
        """The tail of :meth:`next_transaction` after a passed gate draw.

        The compiled kernel's master lane (:mod:`repro.sim.compiled`)
        hoists the per-cycle Bernoulli gate (``rng.random() < rate``)
        out of the component tick; when the gate passes it calls this to
        produce the transaction with the remaining draws in the exact
        order :meth:`next_transaction` would have made them, keeping the
        RNG stream identical draw-for-draw across kernel modes.
        """
        return TxnTemplate(
            target=self._rng.choice(self.targets),
            offset=self._rng.randrange(self.max_offset),
            is_read=self._rng.random() < self.read_fraction,
            burst_len=self.burst_len,
        )


class HotspotTraffic(UniformRandomTraffic):
    """Uniform random, except a fraction of traffic hits one hot target."""

    def __init__(
        self,
        targets: Sequence[str],
        hotspot: str,
        hot_fraction: float,
        rate: float,
        read_fraction: float = 0.5,
        burst_len: int = 1,
        max_offset: int = 256,
        seed: int = 0,
    ) -> None:
        super().__init__(targets, rate, read_fraction, burst_len, max_offset, seed)
        if hotspot not in targets:
            raise ValueError(f"hotspot {hotspot!r} not among targets")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        self.hotspot = hotspot
        self.hot_fraction = hot_fraction

    def next_transaction(self, cycle: int) -> Optional[TxnTemplate]:
        txn = super().next_transaction(cycle)
        if txn is None:
            return None
        if self._rng.random() < self.hot_fraction:
            return TxnTemplate(
                target=self.hotspot,
                offset=txn.offset,
                is_read=txn.is_read,
                burst_len=txn.burst_len,
            )
        return txn


class PermutationTraffic(TrafficPattern):
    """All traffic from this master goes to one fixed target."""

    def __init__(
        self,
        target: str,
        rate: float,
        read_fraction: float = 0.5,
        burst_len: int = 1,
        max_offset: int = 256,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self.target = target
        self.rate = rate
        self.read_fraction = read_fraction
        self.burst_len = burst_len
        self.max_offset = max_offset
        self._seed = seed
        self._rng = random.Random(seed)

    def reset(self) -> None:
        self._rng = random.Random(self._seed)

    def next_transaction(self, cycle: int) -> Optional[TxnTemplate]:
        if self._rng.random() >= self.rate:
            return None
        return TxnTemplate(
            target=self.target,
            offset=self._rng.randrange(self.max_offset),
            is_read=self._rng.random() < self.read_fraction,
            burst_len=self.burst_len,
        )


class ScriptedTraffic(TrafficPattern):
    """Inject an explicit list of (not-before-cycle, template) entries.

    Entries are issued in order; each waits for both its scheduled cycle
    and the master's issue slot.  Used for directed tests and for
    application-graph driven workloads.
    """

    def __init__(self, script: Sequence[Tuple[int, TxnTemplate]]) -> None:
        self.script = list(script)
        cycles = [c for c, _ in self.script]
        if cycles != sorted(cycles):
            raise ValueError("script entries must be sorted by cycle")
        self._pos = 0

    def reset(self) -> None:
        self._pos = 0

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self.script)

    def next_transaction(self, cycle: int) -> Optional[TxnTemplate]:
        if self.exhausted:
            return None
        not_before, template = self.script[self._pos]
        if cycle < not_before:
            return None
        self._pos += 1
        return template


class RateTableTraffic(TrafficPattern):
    """Weighted random destinations with per-target byte rates.

    Built by :mod:`repro.flow` from an application communication graph:
    each (master, target) demand in bytes/cycle becomes an injection
    probability proportional to its bandwidth share.
    """

    def __init__(
        self,
        demands: Dict[str, float],
        total_rate: float,
        read_fraction: float = 0.0,
        burst_len: int = 4,
        max_offset: int = 256,
        seed: int = 0,
    ) -> None:
        if not demands:
            raise ValueError("need at least one demand entry")
        if any(w < 0 for w in demands.values()) or sum(demands.values()) <= 0:
            raise ValueError("demands must be non-negative and not all zero")
        self.demands = dict(demands)
        self.total_rate = total_rate
        self.read_fraction = read_fraction
        self.burst_len = burst_len
        self.max_offset = max_offset
        self._seed = seed
        self._rng = random.Random(seed)
        self._targets: List[str] = list(demands)
        self._weights: List[float] = [demands[t] for t in self._targets]

    def reset(self) -> None:
        self._rng = random.Random(self._seed)

    def next_transaction(self, cycle: int) -> Optional[TxnTemplate]:
        if self._rng.random() >= self.total_rate:
            return None
        target = self._rng.choices(self._targets, weights=self._weights, k=1)[0]
        return TxnTemplate(
            target=target,
            offset=self._rng.randrange(self.max_offset),
            is_read=self._rng.random() < self.read_fraction,
            burst_len=self.burst_len,
        )


class TraceTraffic(TrafficPattern):
    """Replays a recorded transaction trace.

    Trace files are plain text, one transaction per line::

        <cycle> <target> <offset> <R|W> <burst_len> [thread_id]

    Lines starting with ``#`` and blank lines are ignored.  Entries
    must be sorted by cycle.  This is the bridge between real workload
    captures and the simulator: record once, replay against any
    topology or parameter set.
    """

    def __init__(self, entries: Sequence[Tuple[int, TxnTemplate]]) -> None:
        self._script = ScriptedTraffic(entries)

    @staticmethod
    def parse_line(line: str) -> Optional[Tuple[int, TxnTemplate]]:
        """Parse one trace line; None for comments/blanks."""
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return None
        fields = stripped.split()
        if len(fields) not in (5, 6):
            raise ValueError(f"malformed trace line: {line!r}")
        cycle, target, offset, rw, burst = fields[:5]
        if rw.upper() not in ("R", "W"):
            raise ValueError(f"direction must be R or W, got {rw!r}")
        thread = int(fields[5]) if len(fields) == 6 else 0
        return (
            int(cycle),
            TxnTemplate(
                target=target,
                offset=int(offset, 0),
                is_read=rw.upper() == "R",
                burst_len=int(burst),
                thread_id=thread,
            ),
        )

    @classmethod
    def from_text(cls, text: str) -> "TraceTraffic":
        entries = []
        for line in text.splitlines():
            parsed = cls.parse_line(line)
            if parsed is not None:
                entries.append(parsed)
        return cls(entries)

    @staticmethod
    def render(entries: Sequence[Tuple[int, TxnTemplate]]) -> str:
        """Inverse of :meth:`from_text`: serialize a trace to text."""
        lines = ["# cycle target offset R|W burst thread"]
        for cycle, t in entries:
            rw = "R" if t.is_read else "W"
            lines.append(
                f"{cycle} {t.target} {t.offset:#x} {rw} {t.burst_len} {t.thread_id}"
            )
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        self._script.reset()

    @property
    def exhausted(self) -> bool:
        return self._script.exhausted

    def next_transaction(self, cycle: int) -> Optional[TxnTemplate]:
        return self._script.next_transaction(cycle)
