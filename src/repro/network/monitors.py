"""Network observability: utilization, occupancy and protocol health.

The SystemC simulation view of xpipes comes with monitors that designers
use to find hotspots before committing to a topology.  This module adds
the equivalents to the Python view:

* :class:`NetworkMonitor` -- tracks switch output-queue occupancy and
  aggregates per-link utilization and ACK/NACK health counters from the
  components' own instrumentation;
* :func:`utilization_report` -- a printable per-link/per-switch summary.

Occupancy sampling is **activity-aware**: instead of a per-cycle watcher
that reads every queue even while the whole fabric is quiescent (which
defeats the fast-path scheduler's point), the monitor registers kernel
*tick probes* (:meth:`repro.sim.kernel.Simulator.add_probe`) on each
switch.  A probe fires only on cycles the switch actually executed;
queue depths cannot change on skipped cycles, so the monitor weights the
last observed depths by the number of cycles they persisted.  The
resulting statistics are cycle-exact -- identical under every kernel
mode, which ``tests/test_monitors.py`` checks differentially -- while
costing nothing on quiescent cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:
    from repro.network.noc import Noc


@dataclass
class QueueStats:
    """Occupancy statistics of one switch output queue.

    ``samples`` counts *cycles accounted*, not probe firings: a depth
    observed once but persisting ``n`` quiescent cycles is recorded with
    weight ``n``, so means are per-cycle means in both scheduling modes.
    """

    samples: int = 0
    total: int = 0
    peak: int = 0

    def record(self, depth: int, cycles: int = 1) -> None:
        self.samples += cycles
        self.total += depth * cycles
        self.peak = max(self.peak, depth)

    @property
    def mean(self) -> float:
        return self.total / self.samples if self.samples else 0.0


@dataclass
class LinkStats:
    """Derived per-link counters."""

    name: str
    flits: int
    errors: int
    cycles: int

    @property
    def utilization(self) -> float:
        return self.flits / self.cycles if self.cycles else 0.0


class NetworkMonitor:
    """Attachable probe suite for a :class:`~repro.network.noc.Noc`.

    Construction registers one tick probe per switch; call
    :meth:`flush` (done automatically by the aggregation methods and
    :func:`utilization_report`) to account cycles simulated since the
    last switch activity before reading statistics.
    """

    def __init__(self, noc: "Noc") -> None:
        self.noc = noc
        self._start_cycle = noc.sim.cycle
        self.queue_stats: Dict[str, QueueStats] = {}
        # Per switch: its port QueueStats plus the pending observation
        # -- (cycle the depths were read, the depths) -- that future
        # cycles extend until the switch ticks again.
        self._ports: Dict[str, List[QueueStats]] = {}
        self._pending: Dict[str, Tuple[int, List[int]]] = {}
        for name, sw in noc.switches.items():
            outputs = getattr(sw, "outputs", None)
            if outputs is None:
                continue  # credit-mode switches expose no output queues
            stats = []
            for port in outputs:
                qs = QueueStats()
                self.queue_stats[f"{name}.out{port.index}"] = qs
                stats.append(qs)
            self._ports[name] = stats
            self._pending[name] = (
                self._start_cycle,
                [len(p.queue) for p in outputs],
            )
            noc.sim.add_probe(
                sw, lambda cycle, n=name, s=sw: self._on_switch_tick(n, s, cycle)
            )

    def _on_switch_tick(self, name: str, sw, cycle: int) -> None:
        since, depths = self._pending[name]
        span = cycle - since
        if span > 0:
            for qs, d in zip(self._ports[name], depths):
                qs.record(d, span)
        # Post-tick depths hold from this cycle until the next tick.
        self._pending[name] = (cycle, [len(p.queue) for p in sw.outputs])

    def flush(self) -> None:
        """Account all cycles simulated so far into the queue stats."""
        now = self.noc.sim.cycle
        for name, (since, depths) in self._pending.items():
            span = now - since
            if span > 0:
                for qs, d in zip(self._ports[name], depths):
                    qs.record(d, span)
                self._pending[name] = (now, depths)

    @property
    def cycles_observed(self) -> int:
        return self.noc.sim.cycle - self._start_cycle

    # -- aggregation -------------------------------------------------------
    def link_stats(self) -> List[LinkStats]:
        return [
            LinkStats(
                name=link.name,
                flits=link.flits_carried,
                errors=link.errors_injected,
                cycles=max(self.cycles_observed, 1),
            )
            for link in self.noc.links
        ]

    def hottest_links(self, n: int = 5) -> List[LinkStats]:
        return sorted(self.link_stats(), key=lambda s: -s.utilization)[:n]

    def hottest_queues(self, n: int = 5) -> List[tuple]:
        self.flush()
        ranked = sorted(self.queue_stats.items(), key=lambda kv: -kv[1].mean)
        return ranked[:n]

    def nack_ratio(self) -> float:
        """Fraction of link-level receive events that were NACKed."""
        acked = nacked = 0
        receivers = [r for sw in self.noc.switches.values() for r in sw.receivers]
        receivers += [ni.rx for ni in self.noc.initiator_nis.values()]
        receivers += [ni.rx for ni in self.noc.target_nis.values()]
        for r in receivers:
            acked += r.accepted_flits
            nacked += r.rejected_flits + r.corrupted_flits + r.out_of_order_flits
        total = acked + nacked
        return nacked / total if total else 0.0


def occupancy_snapshot(noc: "Noc") -> Dict[str, object]:
    """Instantaneous where-is-everything view of a NoC, for diagnosis.

    Built for :class:`repro.faults.ProgressWatchdog`'s ``NoProgressError``
    payload: when the network stops making progress, this names which
    queues hold flits, which senders have unacknowledged windows, and
    which NIs/masters are still waiting -- i.e. where the cycle or the
    loss is.  Works in both flow-control modes (credit-mode switches
    expose no output queues or go-back-N senders; those fields are
    simply omitted).
    """
    snap: Dict[str, object] = {"cycle": noc.sim.cycle, "switches": {}, "nis": {},
                               "masters": {}}
    for name, sw in noc.switches.items():
        entry: Dict[str, object] = {}
        outputs = getattr(sw, "outputs", None)
        if outputs is not None:
            entry["queue_depths"] = [len(p.queue) for p in outputs]
            entry["sender_in_flight"] = [p.sender.in_flight for p in outputs]
        snap["switches"][name] = entry
    for name, ni in noc.initiator_nis.items():
        snap["nis"][name] = {
            "outstanding": ni._outstanding_count,
            "resp_backlog": len(ni._resp_queue),
            "tx_in_flight": getattr(ni.tx.sender, "in_flight", 0),
            "retried": ni.transactions_retried,
            "failed": ni.transactions_failed,
        }
    for name, ni in noc.target_nis.items():
        snap["nis"][name] = {
            "req_backlog": len(ni._req_queue),
            "tx_in_flight": getattr(ni.tx.sender, "in_flight", 0),
            "served": ni.requests_served,
        }
    for name, m in noc.masters.items():
        snap["masters"][name] = {
            "issued": m.issued,
            "completed": m.completed,
            "failed": m.failed,
            "in_flight": len(m._in_flight),
        }
    return snap


def utilization_report(monitor: NetworkMonitor, top: int = 5) -> str:
    """Printable hotspot summary."""
    monitor.flush()
    lines = [
        f"network monitor: {monitor.cycles_observed} cycles observed",
        f"NACK ratio: {monitor.nack_ratio():.3f}",
        f"top {top} links by utilization:",
    ]
    for s in monitor.hottest_links(top):
        lines.append(
            f"  {s.name:<32} {s.utilization:6.3f} flits/cycle"
            f" ({s.flits} flits, {s.errors} errors)"
        )
    lines.append(f"top {top} output queues by mean occupancy:")
    for name, q in monitor.hottest_queues(top):
        lines.append(f"  {name:<32} mean {q.mean:5.2f}  peak {q.peak}")
    return "\n".join(lines)
