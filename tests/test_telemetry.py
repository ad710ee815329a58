"""The unified telemetry layer: registry, lifecycle traces, heatmaps.

See docs/OBSERVABILITY.md for the contracts exercised here: the
``repro.telemetry/v1`` metrics schema, the four lifecycle trace events
and their Chrome trace-event export, the per-link utilization heatmap,
and the one-call :class:`~repro.telemetry.noc.NocTelemetry` attachment.
"""

import json

import pytest

from repro.network.noc import Noc, NocBuildConfig
from repro.network.topology import attach_round_robin, mesh
from repro.network.traffic import UniformRandomTraffic
from repro.core.config import LinkConfig
from repro.sim.trace import TextTracer
from repro.telemetry import (
    SCHEMA,
    LifecycleCollector,
    LinkUtilizationSeries,
    MetricsRegistry,
    NocTelemetry,
    TelemetryError,
    chrome_trace_events,
    enable_lifecycle,
    heatmap_csv,
    render_heatmap,
    validate_metrics,
    write_chrome_trace,
)


def tiny_noc(config=None, rate=0.1, max_transactions=20):
    topo = mesh(2, 2)
    cpus, mems = attach_round_robin(topo, 2, 2)
    noc = Noc(topo, config)
    noc.populate(
        {c: UniformRandomTraffic(mems, rate, seed=i) for i, c in enumerate(cpus)},
        max_transactions=max_transactions,
    )
    return noc


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_counts(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(TelemetryError, match="negative"):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_callback_reads_live(self):
        reg = MetricsRegistry()
        state = {"v": 1}
        g = reg.gauge("depth", fn=lambda: state["v"])
        state["v"] = 42
        assert g.value == 42

    def test_gauge_set_vs_callback(self):
        reg = MetricsRegistry()
        g = reg.gauge("manual")
        g.set(2.5)
        assert g.value == 2.5
        backed = reg.gauge("backed", fn=lambda: 1)
        with pytest.raises(TelemetryError, match="callback-backed"):
            backed.set(3)

    def test_gauge_nonfinite_exports_null(self):
        reg = MetricsRegistry()
        reg.gauge("inf", fn=lambda: float("inf"))
        doc = reg.to_dict()
        assert doc["gauges"]["inf"]["value"] is None
        validate_metrics(doc)

    def test_series_windows_observations(self):
        reg = MetricsRegistry()
        s = reg.series("util", window=10)
        s.observe(3, 1.0)
        s.observe(7, 3.0)
        s.observe(15, 5.0)
        assert [b["start"] for b in s.buckets] == [0, 10]
        assert s.buckets[0] == {"start": 0, "count": 2, "sum": 4.0, "min": 1.0, "max": 3.0}

    def test_series_rejects_time_travel(self):
        s = MetricsRegistry().series("s", window=10)
        s.observe(25, 1.0)
        with pytest.raises(TelemetryError, match="older"):
            s.observe(3, 1.0)

    def test_histogram_bins_and_clear(self):
        h = MetricsRegistry().histogram("lat", bin_width=10)
        for v in (4, 14, 17, 99):
            h.observe(v)
        assert h.counts == {0: 1, 10: 2, 90: 1}
        assert h.observations == 4
        h.clear()
        assert h.counts == {} and h.observations == 0

    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert len(reg) == 1

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TelemetryError, match="already registered"):
            reg.gauge("x")

    def test_export_document_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1.5)
        reg.series("s").observe(0, 1.0)
        reg.histogram("h").observe(12)
        doc = reg.to_dict(sim_cycles=99)
        assert doc["schema"] == SCHEMA
        assert doc["sim_cycles"] == 99
        assert set(doc["counters"]) == {"c"}
        assert set(doc["histograms"]["h"]["counts"]) == {"10"}
        validate_metrics(doc)
        json.loads(reg.to_json(sim_cycles=99))  # round-trips as JSON


class TestValidateMetrics:
    def valid(self):
        return MetricsRegistry().to_dict(sim_cycles=1)

    def test_accepts_valid(self):
        validate_metrics(self.valid())

    def test_rejects_non_object(self):
        with pytest.raises(TelemetryError, match="object"):
            validate_metrics([1, 2])

    def test_rejects_wrong_schema(self):
        doc = self.valid()
        doc["schema"] = "other/v9"
        with pytest.raises(TelemetryError, match="schema"):
            validate_metrics(doc)

    def test_rejects_negative_counter(self):
        doc = self.valid()
        doc["counters"]["bad"] = {"value": -3, "help": ""}
        with pytest.raises(TelemetryError, match="non-negative"):
            validate_metrics(doc)

    def test_rejects_malformed_series_bucket(self):
        doc = self.valid()
        doc["series"]["bad"] = {"window": 10, "buckets": [{"start": 0}]}
        with pytest.raises(TelemetryError, match="bucket"):
            validate_metrics(doc)

    def test_reports_every_violation(self):
        doc = self.valid()
        doc["version"] = 7
        doc["sim_cycles"] = "many"
        with pytest.raises(TelemetryError) as err:
            validate_metrics(doc)
        assert "version" in str(err.value) and "sim_cycles" in str(err.value)


# ---------------------------------------------------------------------------
# Lifecycle tracing
# ---------------------------------------------------------------------------
class TestLifecycle:
    def traced_noc(self, config=None, cycles=600):
        noc = tiny_noc(config)
        collector = LifecycleCollector()
        noc.sim.tracer = collector
        assert enable_lifecycle(noc) > 0
        noc.run(cycles)
        return noc, collector

    def test_collector_retains_only_lifecycle_events(self):
        noc, col = self.traced_noc()
        names = {e[2] for e in col.events}
        assert names <= {"pkt_inject", "hop", "pkt_eject", "link_error"}
        assert {"pkt_inject", "hop", "pkt_eject"} <= names

    def test_at_least_one_packet_has_full_lifecycle(self):
        noc, col = self.traced_noc()
        injected = {e[3]["pkt"] for e in col.events if e[2] == "pkt_inject"}
        hopped = {e[3]["pkt"] for e in col.events if e[2] == "hop"}
        ejected = {e[3]["pkt"] for e in col.events if e[2] == "pkt_eject"}
        assert injected & hopped & ejected

    def test_hop_wait_is_arbitration_delay(self):
        noc, col = self.traced_noc()
        hops = [e for e in col.events if e[2] == "hop"]
        assert hops
        for cycle, source, _, fields in hops:
            assert fields["wait"] == cycle - fields["arrival"] >= 0

    def test_eject_latency_positive(self):
        noc, col = self.traced_noc()
        ejects = [e for e in col.events if e[2] == "pkt_eject"]
        assert ejects and all(e[3]["latency"] > 0 for e in ejects)

    def test_inner_tracer_still_sees_everything(self):
        noc = tiny_noc()
        inner = TextTracer()
        noc.sim.tracer = LifecycleCollector(inner=inner)
        enable_lifecycle(noc)
        noc.run(400)
        assert len(inner.events) >= len(noc.sim.tracer.events)
        assert inner.of(event="pkt_inject")

    def test_limit_bounds_memory(self):
        noc = tiny_noc()
        col = LifecycleCollector(limit=5)
        noc.sim.tracer = col
        enable_lifecycle(noc)
        noc.run(600)
        assert len(col.events) == 5 and col.dropped > 0

    def test_disabled_by_default(self):
        noc = tiny_noc()
        col = LifecycleCollector()
        noc.sim.tracer = col
        noc.run(300)  # lifecycle never enabled
        assert col.events == []

    def test_link_errors_traced(self):
        noc, col = self.traced_noc(
            NocBuildConfig(link=LinkConfig(error_rate=0.05))
        )
        assert any(e[2] == "link_error" for e in col.events)


class TestChromeTraceExport:
    def events(self):
        noc = tiny_noc()
        col = LifecycleCollector()
        noc.sim.tracer = col
        enable_lifecycle(noc)
        noc.run(600)
        return col.events

    def test_packet_spans_present(self):
        out = chrome_trace_events(self.events())
        spans = [e for e in out if e.get("cat") == "packet"]
        assert spans
        complete = [
            e for e in spans if "src" in e["args"] and "ejected_by" in e["args"]
        ]
        assert complete
        for e in complete:
            assert e["ph"] == "X" and e["dur"] >= 0
            assert e["tid"] == e["args"]["pkt"]

    def test_hop_and_link_spans_present(self):
        out = chrome_trace_events(self.events())
        assert any(e.get("cat") == "hop" for e in out)
        assert any(e.get("cat") == "link" for e in out)

    def test_metadata_names_processes_and_threads(self):
        out = chrome_trace_events(self.events())
        meta = [e for e in out if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta)
        assert any(e["name"] == "thread_name" for e in meta)

    def test_unknown_events_ignored(self):
        out = chrome_trace_events([(0, "x", "weird", {"pkt": 1})])
        assert all(e["ph"] == "M" for e in out)

    def test_write_produces_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        with path.open("w") as fh:
            n = write_chrome_trace(fh, self.events(), metadata={"k": "v"})
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == n > 0
        assert doc["otherData"]["k"] == "v"
        assert doc["otherData"]["time_unit"] == "1 cycle = 1us"


# ---------------------------------------------------------------------------
# Heatmaps
# ---------------------------------------------------------------------------
class TestLinkUtilization:
    def sampled(self, window=50, cycles=400):
        noc = tiny_noc()
        series = LinkUtilizationSeries(noc, window=window)
        noc.run(cycles)
        series.finalize()
        return noc, series

    def test_one_row_per_link(self):
        noc, series = self.sampled()
        assert set(series.rows) == {l.name for l in noc.links}

    def test_windows_cover_the_run(self):
        noc, series = self.sampled(window=50, cycles=400)
        assert len(series.window_starts) == 8
        assert series.window_starts[0] == 0

    def test_utilization_bounded(self):
        noc, series = self.sampled()
        for vals in series.rows.values():
            assert all(0.0 <= v <= 1.0 for v in vals)

    def test_totals_match_link_counters(self):
        noc, series = self.sampled(window=50, cycles=400)
        for link in noc.links:
            accounted = sum(
                v * span
                for v, span in zip(
                    series.rows[link.name],
                    [50] * (len(series.window_starts)),
                )
            )
            assert accounted == pytest.approx(link.flits_carried)

    def test_finalize_idempotent(self):
        noc, series = self.sampled()
        before = len(series.window_starts)
        series.finalize()
        assert len(series.window_starts) == before

    def test_render_and_csv(self):
        noc, series = self.sampled()
        text = render_heatmap(series, top=3)
        assert "windows" in text and text.count("|") == 2 * 3
        csv = heatmap_csv(series)
        lines = csv.strip().splitlines()
        assert len(lines) == len(noc.links) + 1
        header_cols = lines[0].split(",")
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(header_cols)
            assert all(0.0 <= float(x) <= 1.0 for x in cells[1:])

    def test_registry_mirror(self):
        noc = tiny_noc()
        reg = MetricsRegistry()
        series = LinkUtilizationSeries(noc, window=50, registry=reg)
        noc.run(200)
        series.finalize()
        name = f"link.{noc.links[0].name}.utilization"
        assert name in reg
        validate_metrics(reg.to_dict(sim_cycles=noc.sim.cycle))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            LinkUtilizationSeries(tiny_noc(), window=0)


# ---------------------------------------------------------------------------
# The one-call attachment layer
# ---------------------------------------------------------------------------
class TestNocTelemetry:
    def test_snapshot_validates_and_covers_components(self):
        noc = tiny_noc()
        telem = NocTelemetry(noc)
        noc.run_until_drained(max_cycles=500_000)
        doc = telem.snapshot()
        validate_metrics(doc)
        assert doc["sim_cycles"] == noc.sim.cycle
        assert doc["gauges"]["noc.transactions_completed"]["value"] == 40
        assert any(k.startswith("switch.") for k in doc["gauges"])
        assert any(k.startswith("queue.") for k in doc["gauges"])
        assert doc["histograms"]["latency.network"]["counts"]

    def test_snapshot_is_repeatable(self):
        noc = tiny_noc()
        telem = NocTelemetry(noc)
        noc.run(300)
        first = telem.snapshot()
        second = telem.snapshot()
        assert first == second

    def test_write_produces_all_artifacts(self, tmp_path):
        noc = tiny_noc()
        telem = NocTelemetry(noc)
        noc.run(600)
        paths = telem.write(tmp_path / "out")
        assert sorted(p.name for p in paths.values()) == [
            "heatmap.csv", "heatmap.txt", "metrics.json", "metrics.prom",
            "trace.json",
        ]
        validate_metrics(json.loads(paths["metrics"].read_text()))
        trace = json.loads(paths["trace"].read_text())
        assert any(
            e.get("cat") == "packet" and "ejected_by" in e.get("args", {})
            for e in trace["traceEvents"]
        )
        assert "heatmap" in paths["heatmap_txt"].read_text()

    def test_chains_existing_tracer(self):
        topo = mesh(2, 2)
        cpus, mems = attach_round_robin(topo, 2, 2)
        inner = TextTracer()
        noc = Noc(topo, tracer=inner)
        telem = NocTelemetry(noc)
        noc.populate(
            {c: UniformRandomTraffic(mems, 0.1, seed=i) for i, c in enumerate(cpus)},
            max_transactions=5,
        )
        noc.run(300)
        assert telem.collector.inner is inner
        assert inner.events  # the debug tracer still records

    def test_does_not_perturb_results(self):
        plain = tiny_noc()
        plain.run(500)
        observed = tiny_noc()
        NocTelemetry(observed)
        observed.run(500)
        assert observed.stats_digest() == plain.stats_digest()


class TestCreditModeCompat:
    def test_telemetry_attaches_to_credit_noc(self):
        noc = tiny_noc(NocBuildConfig(flow_control="credit"))
        telem = NocTelemetry(noc)
        noc.run_until_drained(max_cycles=500_000)
        doc = telem.snapshot()
        validate_metrics(doc)
        # Credit-mode switches expose no output queues; occupancy stats
        # are simply absent rather than wrong.
        assert not any(k.startswith("queue.") for k in doc["gauges"])
        assert len(telem.collector.events) > 0


class TestFaultInstants:
    """Campaign fault windows ride the lifecycle pipeline: ``fault``
    instants in the collector, their own timeline row in the export."""

    def faulted_noc(self, cycles=600):
        from repro.faults import FaultInjector, FaultWindow

        topo = mesh(2, 2)
        cpus, mems = attach_round_robin(topo, 2, 2)
        noc = Noc(topo)
        injector = FaultInjector(
            noc,
            [FaultWindow("link.sw_0_0.p*", start=100, duration=200, error_rate=0.4)],
        )
        collector = LifecycleCollector()
        noc.sim.tracer = collector
        enable_lifecycle(noc)
        assert injector.lifecycle  # the injector rides the same switch
        noc.populate(
            {c: UniformRandomTraffic(mems, 0.1, seed=i) for i, c in enumerate(cpus)}
        )
        noc.run(cycles)
        return noc, collector

    def test_fault_events_collected(self):
        noc, col = self.faulted_noc()
        faults = [e for e in col.events if e[2] == "fault"]
        assert faults
        phases = {e[3]["phase"] for e in faults}
        assert phases == {"open", "close"}
        assert all(e[3]["mode"] == "burst" for e in faults)

    def test_fault_row_in_chrome_export(self):
        from repro.telemetry.lifecycle import FAULT_TRACK_TID

        noc, col = self.faulted_noc()
        events = chrome_trace_events(col.events)
        rows = [e for e in events if e.get("tid") == FAULT_TRACK_TID]
        named = [e for e in rows if e["ph"] == "M"]
        instants = [e for e in rows if e["ph"] == "i"]
        assert named and named[0]["args"]["name"] == "faults"
        assert instants
        assert all(e["cat"] == "fault" for e in instants)
        assert all(e["args"]["link"].startswith("link.sw_0_0.") for e in instants)

    def test_fault_counters_exported_as_gauges(self):
        from repro.faults import FaultInjector, FaultWindow

        topo = mesh(2, 2)
        cpus, mems = attach_round_robin(topo, 2, 2)
        noc = Noc(topo, NocBuildConfig(ni_txn_timeout=300, ni_txn_retries=1,
                                       link_resync_timeout=40))
        FaultInjector(
            noc,
            [FaultWindow("link.sw_0_0.p*", start=100, duration=300, mode="dead")],
        )
        telemetry = NocTelemetry(noc)
        noc.populate(
            {c: UniformRandomTraffic(mems, 0.1, seed=i) for i, c in enumerate(cpus)}
        )
        noc.run(1200)
        doc = telemetry.snapshot()
        gauges = doc["gauges"]
        assert gauges["noc.flits_dropped"]["value"] > 0
        assert "noc.transactions_failed" in gauges
        assert "noc.transactions_retried" in gauges
        assert gauges["faults.faults.windows_opened"]["value"] > 0
        validate_metrics(doc)


# ---------------------------------------------------------------------------
# Multi-process merge and Prometheus exposition (fleet telemetry)
# ---------------------------------------------------------------------------
class TestRegistryMerge:
    def test_counters_sum(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("hits").inc(3)
        b.counter("hits").inc(4)
        assert a.merge(b) is a
        assert a.counter("hits").value == 7

    def test_gauges_are_last_write(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("depth").set(1.0)
        b.gauge("depth").set(9.0)
        a.merge(b)
        assert a.gauge("depth").value == 9.0

    def test_callback_gauge_refuses_incoming_value(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("live", fn=lambda: 5)
        b.gauge("live").set(1.0)
        with pytest.raises(TelemetryError, match="callback-backed"):
            a.merge(b)

    def test_series_concatenate_by_bucket(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        sa = a.series("util", window=10)
        sa.observe(3, 1.0)
        sb = b.series("util", window=10)
        sb.observe(7, 3.0)
        sb.observe(15, 5.0)
        a.merge(b)
        assert [x["start"] for x in sa.buckets] == [0, 10]
        assert sa.buckets[0] == {
            "start": 0, "count": 2, "sum": 4.0, "min": 1.0, "max": 3.0
        }

    def test_series_window_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.series("util", window=10)
        b.series("util", window=20)
        with pytest.raises(TelemetryError, match="window"):
            a.merge(b)

    def test_histograms_sum_bins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        ha = a.histogram("lat", bin_width=10)
        ha.observe(4)
        hb = b.histogram("lat", bin_width=10)
        hb.observe(4)
        hb.observe(17)
        a.merge(b)
        assert ha.counts == {0: 2, 10: 1}
        assert ha.observations == 3

    def test_histogram_bin_width_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", bin_width=10)
        b.histogram("lat", bin_width=5)
        with pytest.raises(TelemetryError, match="bin_width"):
            a.merge(b)

    def test_kind_collision_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x")
        b.gauge("x")
        with pytest.raises(TelemetryError, match="counter.*gauge"):
            a.merge(b)

    def test_adopts_metrics_only_in_other(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        state = {"v": 2}
        b.counter("c").inc(5)
        b.gauge("g", fn=lambda: state["v"])
        a.merge(b)
        assert a.counter("c").value == 5
        # Callback gauges are snapshotted: the callable stays in the
        # worker process, the merged registry keeps the value it read.
        state["v"] = 99
        assert a.gauge("g").value == 2
        a.gauge("g").set(3.0)  # and the copy is settable here
        # The source registry is untouched by the merge.
        assert b.counter("c").value == 5

    def test_merged_document_still_validates(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc()
        b.counter("c").inc()
        b.series("s", window=5).observe(2, 1.0)
        b.histogram("h", bin_width=2).observe(3)
        doc = a.merge(b).to_dict(sim_cycles=10)
        validate_metrics(doc)
        assert doc["counters"]["c"]["value"] == 2


class TestPrometheusExposition:
    def registry(self):
        reg = MetricsRegistry()
        reg.counter("noc.flits_sent", help="flits offered").inc(7)
        reg.gauge("queue.sw_0_0/p0").set(1.5)
        reg.gauge("bad", fn=lambda: float("nan"))
        h = reg.histogram("latency", bin_width=10)
        for v in (4, 14, 17):
            h.observe(v)
        s = reg.series("util", window=10)
        s.observe(3, 1.0)
        s.observe(7, 3.0)
        return reg

    def test_names_are_sanitized_and_prefixed(self):
        text = self.registry().to_prometheus()
        assert "repro_noc_flits_sent 7" in text
        assert "repro_queue_sw_0_0_p0 1.5" in text
        assert "# HELP repro_noc_flits_sent flits offered" in text
        assert "# TYPE repro_noc_flits_sent counter" in text

    def test_histogram_buckets_are_cumulative(self):
        text = self.registry().to_prometheus()
        assert 'repro_latency_bucket{le="10"} 1' in text
        assert 'repro_latency_bucket{le="20"} 3' in text
        assert 'repro_latency_bucket{le="+Inf"} 3' in text
        assert "repro_latency_count 3" in text

    def test_series_export_count_and_sum(self):
        text = self.registry().to_prometheus()
        assert "repro_util_count 2" in text
        assert "repro_util_sum 4.0" in text

    def test_nonfinite_gauges_are_skipped(self):
        text = self.registry().to_prometheus()
        assert "repro_bad" not in text

    def test_custom_prefix(self):
        text = self.registry().to_prometheus(prefix="xp")
        assert "xp_noc_flits_sent 7" in text
        assert "repro_" not in text

    def test_noc_telemetry_writes_metrics_prom(self, tmp_path):
        noc = tiny_noc()
        telem = NocTelemetry(noc)
        noc.run_until_drained(max_cycles=500_000)
        paths = telem.write(str(tmp_path / "out"))
        assert paths["metrics_prom"].name == "metrics.prom"
        text = paths["metrics_prom"].read_text()
        # The .prom exposition describes the same registry as the
        # validated metrics.json next to it.
        doc = json.loads(paths["metrics"].read_text())
        validate_metrics(doc)
        done = doc["gauges"]["noc.transactions_completed"]["value"]
        assert done > 0
        assert f"repro_noc_transactions_completed {done}" in text


class TestLaneMetricsRoundTrip:
    """Satellite contract: per-lane campaign metrics and their ci95
    half-widths survive a ``metrics.json`` round-trip intact."""

    @pytest.mark.timeout_guard(240)
    def test_replicated_campaign_metrics_round_trip(self, tmp_path):
        from repro.faults import CampaignSpec, FaultWindow, run_campaign
        from repro.network.experiments import TopologyNocBuilder
        from repro.network.topology import mesh as mesh_topo

        spec = CampaignSpec(
            builder=TopologyNocBuilder(
                mesh_topo, (2, 2), n_initiators=2, n_targets=2,
                config=NocBuildConfig(
                    ni_txn_timeout=300, ni_txn_retries=1,
                    link_resync_timeout=40,
                ),
            ),
            windows=(FaultWindow("link.*", start=150, duration=400,
                                 error_rate=0.05),),
            rate=0.08, warmup_cycles=100, measure_cycles=800, seed=3,
            label="roundtrip-test",
        )
        result = run_campaign(spec, replicas=3)
        assert result.ci95 and result.lane_metrics

        reg = MetricsRegistry()
        for name, column in sorted(result.lane_metrics.items()):
            for lane, value in enumerate(column):
                reg.gauge(f"lane.{name}.{lane}").set(float(value))
        for name, half in sorted(result.ci95.items()):
            reg.gauge(f"ci95.{name}").set(float(half))

        path = tmp_path / "metrics.json"
        path.write_text(reg.to_json(sim_cycles=spec.measure_cycles))
        doc = json.loads(path.read_text())
        validate_metrics(doc)

        gauges = doc["gauges"]
        for name, column in result.lane_metrics.items():
            got = tuple(
                gauges[f"lane.{name}.{lane}"]["value"]
                for lane in range(len(column))
            )
            assert got == tuple(float(v) for v in column)
        for name, half in result.ci95.items():
            assert gauges[f"ci95.{name}"]["value"] == pytest.approx(half)
