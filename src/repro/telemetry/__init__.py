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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "events": ("EVENT_TYPES", "EVENTS_SCHEMA", "EventCollector", "EventWriter", "emit",
               "events_to_chrome_trace", "install_sink", "read_events", "remove_sink",
               "replay_summary", "validate_events", "write_events_chrome_trace"),
    "heatmap": ("LinkUtilizationSeries", "heatmap_csv", "render_heatmap"),
    "lifecycle": ("LIFECYCLE_EVENTS", "LifecycleCollector", "chrome_trace_events",
                  "enable_lifecycle", "write_chrome_trace"),
    "noc": ("NocTelemetry",),
    "profile": ("PROFILE_SCHEMA", "KernelProfiler", "validate_profile"),
    "registry": ("SCHEMA", "CounterMetric", "GaugeMetric", "HistogramMetric",
                 "MetricsRegistry", "SeriesMetric", "TelemetryError",
                 "validate_metrics"),
    "regress": ("bench_diff", "diff_metrics"),
})
