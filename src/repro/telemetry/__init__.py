"""Unified telemetry: metrics registry, lifecycle tracing, heatmaps.

See ``docs/OBSERVABILITY.md`` for the metrics schema, the trace event
reference, and the Perfetto loading how-to.  The three layers are usable
independently; :class:`~repro.telemetry.noc.NocTelemetry` wires all of
them to a NoC in one call (what ``python -m repro report`` does).

The fleet layer rides on top: :mod:`repro.telemetry.events` (the
cross-process ``events.jsonl`` stream), :mod:`repro.telemetry.profile`
(the compiled-kernel sampling profiler),
:mod:`repro.telemetry.regress` (the ledger diff behind ``python -m
repro bench-diff``, bounds read from ``BENCHMARK.json``) and
:mod:`repro.telemetry.top` (the ``python -m repro top`` dashboard).
"""

from repro.telemetry.events import (
    EVENT_TYPES,
    EVENTS_SCHEMA,
    EventCollector,
    EventWriter,
    emit,
    events_to_chrome_trace,
    install_file_sink,
    install_sink,
    read_events,
    remove_sink,
    replay_summary,
    validate_events,
    write_events_chrome_trace,
)
from repro.telemetry.heatmap import (
    LinkUtilizationSeries,
    heatmap_csv,
    render_heatmap,
)
from repro.telemetry.lifecycle import (
    LIFECYCLE_EVENTS,
    LifecycleCollector,
    chrome_trace_events,
    enable_lifecycle,
    write_chrome_trace,
)
from repro.telemetry.noc import NocTelemetry
from repro.telemetry.profile import (
    PROFILE_SCHEMA,
    KernelProfiler,
    validate_profile,
)
from repro.telemetry.registry import (
    SCHEMA,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    SeriesMetric,
    TelemetryError,
    validate_metrics,
)
from repro.telemetry.regress import bench_diff, diff_metrics

__all__ = [
    "SCHEMA",
    "EVENTS_SCHEMA",
    "EVENT_TYPES",
    "PROFILE_SCHEMA",
    "LIFECYCLE_EVENTS",
    "CounterMetric",
    "EventCollector",
    "EventWriter",
    "GaugeMetric",
    "HistogramMetric",
    "KernelProfiler",
    "LifecycleCollector",
    "LinkUtilizationSeries",
    "MetricsRegistry",
    "NocTelemetry",
    "SeriesMetric",
    "TelemetryError",
    "bench_diff",
    "chrome_trace_events",
    "diff_metrics",
    "emit",
    "enable_lifecycle",
    "events_to_chrome_trace",
    "heatmap_csv",
    "install_file_sink",
    "install_sink",
    "read_events",
    "remove_sink",
    "render_heatmap",
    "replay_summary",
    "validate_events",
    "validate_metrics",
    "validate_profile",
    "write_chrome_trace",
    "write_events_chrome_trace",
]
