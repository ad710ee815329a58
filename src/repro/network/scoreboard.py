"""End-to-end data scoreboard: self-checking traffic.

The integration tests hand-check a few transactions; this module makes
the check systematic, UVM-scoreboard style.  A
:class:`CheckedTrafficMaster` shadows every write it completes and
verifies every read against the shadow -- catching silent data
corruption (e.g. undetected CRC aliasing in bit-accurate error mode),
misrouted writes, and reordering bugs.

Exactness requires the master to be the only writer of the addresses it
checks; :func:`private_stripe_patterns` builds uniform-random patterns
whose offset ranges are disjoint per master, so whole-NoC runs stay
fully checkable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.ocp import BurstTransaction, OcpMasterPort
from repro.network.cores import OcpTrafficMaster
from repro.network.traffic import TrafficPattern, UniformRandomTraffic


class ScoreboardError(AssertionError):
    """A read returned data that contradicts completed writes."""


class CheckedTrafficMaster(OcpTrafficMaster):
    """A traffic master that verifies read data against its own writes.

    The shadow is updated when a *write completes* (response accepted),
    so outstanding writes never race their own later reads as long as
    the pattern respects per-master address ownership.  Unwritten
    addresses are expected to read as zero (the memory model's reset
    value); pass ``check_unwritten=False`` to skip those.
    """

    def __init__(self, *args, check_unwritten: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.check_unwritten = check_unwritten
        self._shadow: Dict[int, int] = {}
        self._txn_info: Dict[int, BurstTransaction] = {}
        self.reads_checked = 0
        self.words_checked = 0
        self.mismatches: List[Tuple[int, int, int, int]] = []  # (txn, addr, got, want)

    def reset(self) -> None:
        super().reset()
        self._shadow = {}
        self._txn_info = {}
        self.reads_checked = 0
        self.words_checked = 0
        self.mismatches = []

    def _build_txn(self, template, cycle: int) -> BurstTransaction:
        txn = super()._build_txn(template, cycle)
        self._txn_info[txn.txn_id] = txn
        return txn

    def tick(self, cycle: int) -> None:
        before = set(self._completed)
        super().tick(cycle)
        for txn_id in self._completed - before:
            txn = self._txn_info.pop(txn_id, None)
            if txn is None:
                continue
            if txn.is_write:
                for beat, word in enumerate(txn.data):
                    self._shadow[txn.addr + beat] = word
            else:
                self._check_read(txn)

    def _check_read(self, txn: BurstTransaction) -> None:
        data = self.read_data.get(txn.txn_id)
        if data is None:
            return
        self.reads_checked += 1
        for beat, got in enumerate(data):
            addr = txn.addr + beat
            if addr in self._shadow:
                want = self._shadow[addr]
            elif self.check_unwritten:
                want = 0
            else:
                continue
            self.words_checked += 1
            if got != want:
                self.mismatches.append((txn.txn_id, addr, got, want))

    def assert_clean(self) -> None:
        """Raise if any read ever contradicted the shadow."""
        if self.mismatches:
            txn, addr, got, want = self.mismatches[0]
            raise ScoreboardError(
                f"{self.name}: {len(self.mismatches)} corrupted read(s); first: "
                f"txn {txn} addr {addr:#x} got {got:#x} want {want:#x}"
            )

    def digest(self) -> str:
        """sha256 over this master's full scoreboard state.

        Canonical (sorted shadow, txn ids excluded -- they come from a
        process-global counter) so two equivalent runs, e.g. fast-path
        vs full-tick, produce byte-identical digests.
        """
        import hashlib

        lines = [
            f"issued={self.issued} completed={self.completed}",
            f"reads_checked={self.reads_checked} words_checked={self.words_checked}",
            f"shadow={sorted(self._shadow.items())!r}",
            f"mismatches={sorted((a, g, w) for _txn, a, g, w in self.mismatches)!r}",
            f"latency={self.latency.samples!r}",
        ]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def private_stripe_patterns(
    masters: Sequence[str],
    targets: Sequence[str],
    rate: float,
    stripe_words: int = 64,
    read_fraction: float = 0.5,
    burst_len: int = 1,
    seed: int = 0,
) -> Dict[str, TrafficPattern]:
    """Uniform-random patterns with disjoint per-master offset stripes.

    Master *i* only touches offsets ``[i * stripe, (i+1) * stripe)`` of
    every target, so each is the sole writer of its addresses and
    :class:`CheckedTrafficMaster` checks are exact.
    """
    if not masters:
        raise ValueError("need at least one master")
    patterns: Dict[str, TrafficPattern] = {}
    for i, m in enumerate(masters):
        base = i * stripe_words
        pattern = UniformRandomTraffic(
            targets,
            rate=rate,
            read_fraction=read_fraction,
            burst_len=burst_len,
            max_offset=stripe_words - burst_len + 1,
            seed=seed + i,
        )
        patterns[m] = _OffsetShift(pattern, base)
    return patterns


class _OffsetShift(TrafficPattern):
    """Wraps a pattern, shifting every offset into a private stripe."""

    def __init__(self, inner: TrafficPattern, base: int) -> None:
        self.inner = inner
        self.base = base

    def reset(self) -> None:
        self.inner.reset()

    def next_transaction(self, cycle: int):
        t = self.inner.next_transaction(cycle)
        if t is None:
            return None
        from dataclasses import replace

        return replace(t, offset=t.offset + self.base)


def add_checked_masters(
    noc,
    patterns: Dict[str, TrafficPattern],
    max_outstanding: int = 4,
    max_transactions: Optional[int] = None,
) -> Dict[str, CheckedTrafficMaster]:
    """Attach :class:`CheckedTrafficMaster` instances to a built Noc."""
    masters = {}
    for ni_name, pattern in patterns.items():
        port: OcpMasterPort = noc.master_ports[ni_name]
        master = CheckedTrafficMaster(
            f"{ni_name}.core",
            port,
            pattern,
            noc.address_map,
            max_outstanding=max_outstanding,
            max_transactions=max_transactions,
        )
        noc.masters[ni_name] = master
        noc.sim.add(master)
        masters[ni_name] = master
    return masters


def assert_all_clean(masters: Dict[str, CheckedTrafficMaster]) -> None:
    """Raise on the first master whose scoreboard saw corruption."""
    for master in masters.values():
        master.assert_clean()
