"""One-call telemetry attachment for a whole NoC.

:class:`NocTelemetry` is the aggregation layer the ``python -m repro
report`` CLI uses: constructing one against a built (ideally not yet
run) :class:`~repro.network.noc.Noc`

* creates a :class:`~repro.telemetry.registry.MetricsRegistry` and
  registers callback-backed gauges over the components' existing
  instrumentation counters (zero hot-path cost -- values are read at
  export time),
* attaches a :class:`~repro.network.monitors.NetworkMonitor`
  (activity-aware queue occupancy via kernel tick probes),
* attaches a :class:`~repro.telemetry.heatmap.LinkUtilizationSeries`
  (windowed per-link utilization),
* installs a :class:`~repro.telemetry.lifecycle.LifecycleCollector` as
  the simulator's tracer (chaining any tracer already installed) and
  flips lifecycle instrumentation on every component.

After (or during) the run, :meth:`snapshot` returns the schema-stable
metrics document and :meth:`write` dumps the full artifact set --
``metrics.json``, ``metrics.prom`` (Prometheus text exposition),
``trace.json`` (Chrome trace-event format, loadable in Perfetto),
``heatmap.txt`` and ``heatmap.csv`` -- into a directory.

Telemetry is strictly opt-in: a NoC without a ``NocTelemetry`` attached
pays only dormant ``if self.lifecycle`` flag checks, measured at under
5% wall clock by ``benchmarks/bench_s2_telemetry_overhead.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.network.monitors import NetworkMonitor
from repro.sim.trace import NullTracer
from repro.telemetry.heatmap import LinkUtilizationSeries, heatmap_csv, render_heatmap
from repro.telemetry.lifecycle import (
    LifecycleCollector,
    enable_lifecycle,
    write_chrome_trace,
)
from repro.telemetry.registry import MetricsRegistry, validate_metrics

if TYPE_CHECKING:
    from repro.network.noc import Noc


class NocTelemetry:
    """All telemetry collectors for one NoC, attached in one call."""

    def __init__(
        self,
        noc: "Noc",
        window: int = 100,
        trace_limit: Optional[int] = 100_000,
        latency_bin_width: int = 10,
    ) -> None:
        self.noc = noc
        self.latency_bin_width = latency_bin_width
        self.registry = MetricsRegistry()
        self.monitor = NetworkMonitor(noc)
        self.link_series = LinkUtilizationSeries(noc, window=window, registry=self.registry)
        inner = noc.sim.tracer
        self.collector = LifecycleCollector(
            inner=None if isinstance(inner, NullTracer) else inner,
            limit=trace_limit,
        )
        noc.sim.tracer = self.collector
        self.components_instrumented = enable_lifecycle(noc)
        self._register_gauges()

    def _register_gauges(self) -> None:
        reg, noc = self.registry, self.noc
        sim = noc.sim
        reg.gauge("sim.cycles", lambda: sim.cycle, help="cycles simulated")
        reg.gauge(
            "sim.ticks_executed", lambda: sim.ticks_executed,
            help="component ticks actually run",
        )
        reg.gauge(
            "sim.ticks_skipped", lambda: sim.ticks_skipped,
            help="component ticks elided by the fast-path scheduler",
        )
        reg.gauge(
            "noc.flits_carried", noc.total_flits_carried,
            help="flit-hops across all links",
        )
        reg.gauge(
            "noc.errors_injected", noc.total_errors_injected,
            help="link errors injected",
        )
        reg.gauge(
            "noc.retransmissions", noc.total_retransmissions,
            help="go-back-N retransmissions",
        )
        reg.gauge(
            "noc.transactions_issued", noc.total_issued,
            help="OCP transactions issued by all masters",
        )
        reg.gauge(
            "noc.transactions_completed", noc.total_completed,
            help="OCP transactions completed by all masters",
        )
        reg.gauge(
            "noc.flits_dropped", noc.total_flits_dropped,
            help="flits dropped by dead-link fault windows",
        )
        reg.gauge(
            "noc.transactions_failed", noc.total_transactions_failed,
            help="transactions reported lost (SResp.ERR) after timeout",
        )
        reg.gauge(
            "noc.transactions_retried", noc.total_transactions_retried,
            help="transaction resubmissions after an NI timeout",
        )
        for name, sw in noc.switches.items():
            reg.gauge(
                f"switch.{name}.flits_routed", lambda s=sw: s.flits_routed,
                help="flits committed through the crossbar",
            )
            reg.gauge(
                f"switch.{name}.allocation_conflicts",
                lambda s=sw: s.allocation_conflicts,
                help="cycles a requested output was taken",
            )
        for name, ni in noc.initiator_nis.items():
            reg.gauge(
                f"ni.{name}.transactions_issued",
                lambda n=ni: n.transactions_issued,
                help="transactions packetized by this initiator NI",
            )
            reg.gauge(
                f"ni.{name}.responses_delivered",
                lambda n=ni: n.responses_delivered,
                help="responses reassembled and handed to the core",
            )
            reg.gauge(
                f"ni.{name}.transactions_retried",
                lambda n=ni: n.transactions_retried,
                help="timed-out transactions this NI resubmitted",
            )
            reg.gauge(
                f"ni.{name}.transactions_failed",
                lambda n=ni: n.transactions_failed,
                help="transactions this NI reported lost (SResp.ERR)",
            )
        for name, ni in noc.target_nis.items():
            reg.gauge(
                f"ni.{name}.requests_served", lambda n=ni: n.requests_served,
                help="requests reassembled and served by this target NI",
            )
        for link in noc.links:
            reg.gauge(
                f"link.{link.name}.flits_carried",
                lambda l=link: l.flits_carried,
                help="flits carried by this link",
            )
        # Fault injectors attach themselves to the NoC; gauges cover any
        # that exist when telemetry is wired up (create injectors first).
        for inj in getattr(noc, "fault_injectors", []):
            reg.gauge(
                f"faults.{inj.name}.windows_opened",
                lambda i=inj: i.windows_opened,
                help="fault windows opened so far",
            )
            reg.gauge(
                f"faults.{inj.name}.windows_closed",
                lambda i=inj: i.windows_closed,
                help="fault windows closed so far",
            )
        col = self.collector
        reg.gauge(
            "telemetry.trace_events", lambda: len(col.events),
            help="lifecycle events retained",
        )
        reg.gauge(
            "telemetry.trace_dropped", lambda: col.dropped,
            help="lifecycle events dropped past the retention limit",
        )

    # -- export ------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The schema-stable metrics document for the run so far."""
        noc = self.noc
        self.monitor.flush()
        self.link_series.finalize()
        net = self.registry.histogram(
            "latency.network", bin_width=self.latency_bin_width,
            help="packet latency, injection to reassembly (cycles)",
        )
        net.clear()
        for s in noc.network_latency().samples:
            net.observe(s)
        txn = self.registry.histogram(
            "latency.transaction", bin_width=self.latency_bin_width,
            help="end-to-end OCP transaction latency (cycles)",
        )
        txn.clear()
        for s in noc.aggregate_latency().samples:
            txn.observe(s)
        self.registry.counter(
            "monitor.cycles_observed", help="cycles accounted by the queue monitor"
        ).value = self.monitor.cycles_observed
        for qname, qs in self.monitor.queue_stats.items():
            g = self.registry.gauge(
                f"queue.{qname}.mean", help="mean output-queue occupancy (flits)"
            )
            g.set(qs.mean)
            g = self.registry.gauge(
                f"queue.{qname}.peak", help="peak output-queue occupancy (flits)"
            )
            g.set(qs.peak)
        return self.registry.to_dict(sim_cycles=noc.sim.cycle)

    def write(self, out_dir) -> Dict[str, Path]:
        """Write metrics.json / trace.json / heatmap.{txt,csv} to a dir.

        The metrics document is validated against the schema before it
        is written; returns the path of every artifact produced.
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        doc = self.snapshot()
        validate_metrics(doc)
        paths = {
            "metrics": out / "metrics.json",
            "metrics_prom": out / "metrics.prom",
            "trace": out / "trace.json",
            "heatmap_txt": out / "heatmap.txt",
            "heatmap_csv": out / "heatmap.csv",
        }
        paths["metrics"].write_text(json.dumps(doc, indent=2) + "\n")
        paths["metrics_prom"].write_text(self.registry.to_prometheus())
        with paths["trace"].open("w") as fh:
            write_chrome_trace(
                fh,
                self.collector.events,
                metadata={
                    "topology": self.noc.topology.name,
                    "cycles": self.noc.sim.cycle,
                    "trace_dropped": self.collector.dropped,
                },
            )
        paths["heatmap_txt"].write_text(render_heatmap(self.link_series) + "\n")
        paths["heatmap_csv"].write_text(heatmap_csv(self.link_series))
        return paths


def _check_report(paths: Dict[str, Path]) -> "list[str]":
    """Re-read every report artifact and list schema violations."""
    problems = []
    try:
        validate_metrics(json.loads(paths["metrics"].read_text()))
    except ValueError as exc:  # TelemetryError is a ValueError
        problems.append(f"metrics.json: {exc}")
    try:
        trace = json.loads(paths["trace"].read_text())
        events = trace["traceEvents"]
        complete = [
            e
            for e in events
            if e.get("cat") == "packet"
            and e.get("ph") == "X"
            and "src" in e.get("args", {})
            and "ejected_by" in e.get("args", {})
        ]
        if not complete:
            problems.append(
                "trace.json: no packet with both injection and ejection spans"
            )
        if not any(e.get("cat") == "hop" for e in events):
            problems.append("trace.json: no per-hop arbitration spans")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"trace.json: not a trace-event document ({exc})")
    try:
        lines = paths["heatmap_csv"].read_text().strip().splitlines()
        cols = len(lines[0].split(","))
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != cols:
                raise ValueError(f"ragged row {cells[0]!r}")
            for cell in cells[1:]:
                float(cell)
    except (ValueError, IndexError) as exc:
        problems.append(f"heatmap.csv: {exc}")
    return problems


def report_main(
    out: str = "telemetry-report",
    mesh: Tuple[int, int] = (2, 2),
    cycles: int = 2000,
    rate: float = 0.1,
    window: int = 100,
    check: bool = False,
) -> int:
    """``python -m repro report``: uniform random traffic on a ``mesh``
    of ``(W, H)`` switches with :class:`NocTelemetry` attached, every
    artifact written to ``out``; ``check`` re-reads and validates them.
    Returns the exit code (1 for a failed check)."""
    from repro.network import Noc, UniformRandomTraffic
    from repro.network import mesh as mesh_topology
    from repro.network.topology import attach_round_robin

    w, h = mesh
    topo = mesh_topology(w, h)
    n = w * h
    cpus, mems = attach_round_robin(topo, max(1, n // 2), max(1, n - n // 2))
    noc = Noc(topo)
    telemetry = NocTelemetry(noc, window=window)
    noc.populate(
        {c: UniformRandomTraffic(mems, rate, seed=i) for i, c in enumerate(cpus)}
    )
    noc.run(cycles)
    paths = telemetry.write(out)
    events = len(telemetry.collector.events)
    print(
        f"{w}x{h} mesh, {len(cpus)} CPUs + {len(mems)} memories, "
        f"{cycles} cycles at rate {rate}: {noc.total_completed()} transactions, "
        f"{events} lifecycle events"
    )
    for kind, path in paths.items():
        print(f"  {kind:<12} {path}")
    if check:
        problems = _check_report(paths)
        if problems:
            for p in problems:
                print(f"CHECK FAILED: {p}", file=sys.stderr)
            return 1
        print("  check        all artifacts valid")
    return 0
