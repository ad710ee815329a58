"""The compiled-kernel sampling profiler (docs/OBSERVABILITY.md).

The contracts: attaching a :class:`KernelProfiler` must never change
simulation results (digest parity with an unprofiled run); with no
profiler attached the generated source carries exactly one build-time
``_PROF`` branch and zero wrappers; counts attribute to codegen lanes;
``BatchSimulator`` reports per-replica wall time through
:meth:`record_replica`; and the ``profile.json`` document round-trips
through :func:`validate_profile`.
"""

import json

import pytest

from repro.network.noc import Noc, NocBuildConfig
from repro.network.topology import attach_round_robin, mesh
from repro.network.traffic import UniformRandomTraffic
from repro.telemetry import KernelProfiler, TelemetryError, validate_profile
from repro.telemetry.profile import PROFILE_SCHEMA


def tiny_noc(rate=0.1, max_transactions=20, config=None):
    topo = mesh(2, 2)
    cpus, mems = attach_round_robin(topo, 2, 2)
    noc = Noc(topo, config)
    noc.populate(
        {c: UniformRandomTraffic(mems, rate, seed=i) for i, c in enumerate(cpus)},
        max_transactions=max_transactions,
    )
    return noc


def profiled_run(cycles=2000, sample_every=4):
    noc = tiny_noc()
    prof = KernelProfiler(sample_every=sample_every)
    noc.sim.set_profiler(prof)
    noc.sim.set_kernel("compiled")
    noc.run(cycles)
    return noc, prof


class TestKernelProfiler:
    def test_rejects_nonpositive_sampling(self):
        with pytest.raises(TelemetryError, match="sample_every"):
            KernelProfiler(sample_every=0)

    def test_counts_every_thunk_call(self):
        noc, prof = profiled_run()
        assert prof.installs == 1
        assert prof.total_calls > 0
        # Every thunk-table dispatch went through a wrapper.  The count
        # stays below the executed-tick total because drawer-lane
        # masters run through their pre-bound fast path, not the table.
        assert prof.total_calls <= noc.sim.ticks_executed

    def test_digest_identical_with_and_without_profiler(self):
        plain = tiny_noc()
        plain.sim.set_kernel("compiled")
        plain.run(2000)
        noc, _ = profiled_run()
        assert noc.stats_digest() == plain.stats_digest()

    def test_unprofiled_source_has_only_the_build_branch(self):
        from repro.sim.compiled import compiled_source

        source = compiled_source(tiny_noc().sim)
        # The build-time test and the install call (the hook itself is
        # a global compile_simulator injects): no per-cycle profiler
        # code exists when nothing is attached.
        assert source.count("_PROF") == 2

    def test_components_attribute_to_codegen_lanes(self):
        _, prof = profiled_run()
        doc = prof.report()
        lanes = {c["lane"] for c in doc["components"]}
        assert "switch" in lanes
        assert "link" in lanes
        assert {"ni-initiator", "ni-target"} <= lanes
        by_name = {c["name"]: c for c in doc["components"]}
        assert by_name["sw_0_0"]["lane"] == "switch"

    def test_sampling_extrapolates_est_seconds(self):
        _, prof = profiled_run(sample_every=4)
        doc = prof.report()
        busy = [c for c in doc["components"] if c["sampled"] > 0]
        assert busy, "nothing was ever sampled"
        for c in busy:
            est = c["sampled_seconds"] * c["calls"] / c["sampled"]
            assert c["est_seconds"] == pytest.approx(est)
        assert doc["total_est_seconds"] == pytest.approx(
            sum(c["est_seconds"] for c in doc["components"])
        )

    def test_lane_shares_sum_to_one(self):
        _, prof = profiled_run()
        doc = prof.report()
        assert sum(l["share"] for l in doc["lanes"].values()) == pytest.approx(
            1.0
        )

    def test_clear_resets_accumulation(self):
        _, prof = profiled_run()
        prof.clear()
        assert prof.total_calls == 0
        assert prof.report()["components"] == []

    def test_set_profiler_invalidates_the_compiled_program(self):
        # Unbounded traffic: the fabric must still be busy after the
        # mid-run re-elaboration, or there is nothing to count.
        noc = tiny_noc(max_transactions=None)
        noc.sim.set_kernel("compiled")
        noc.run(500)
        prof = KernelProfiler(sample_every=4)
        noc.sim.set_profiler(prof)  # must force re-elaboration
        noc.run(500)
        assert prof.total_calls > 0

    def test_render_mentions_the_top_components(self):
        _, prof = profiled_run()
        table = prof.render(top=3)
        assert "compiled-kernel profile" in table
        assert "switch" in table
        assert "lane" in table


class TestBatchAttribution:
    @pytest.mark.timeout_guard(240)
    def test_batch_lanes_record_replica_wall_time(self):
        from repro.sim.batch import BatchSimulator

        noc = tiny_noc(
            rate=0.02, max_transactions=3,
            config=NocBuildConfig(kernel="compiled"),
        )
        prof = KernelProfiler(sample_every=16)
        noc.sim.set_profiler(prof)
        lanes = 3
        batch = BatchSimulator(noc, lanes)
        batch.run_lanes(4000, lambda n, k: {"completed": n.total_completed()})
        assert len(prof.replica_batches) == lanes
        assert [lane for lane, _, _ in prof.replica_batches] == [0, 1, 2]
        assert all(cycles == 4000 for _, cycles, _ in prof.replica_batches)
        assert all(seconds >= 0.0 for _, _, seconds in prof.replica_batches)
        doc = prof.report()
        assert doc["replicas"]["lanes"] == lanes
        assert doc["replicas"]["cycles"] == lanes * 4000
        validate_profile(doc)

    def test_scalar_profile_has_no_replica_section(self):
        _, prof = profiled_run()
        assert prof.report()["replicas"] is None


class TestProfileDocument:
    def test_write_round_trips_through_validate(self, tmp_path):
        _, prof = profiled_run()
        path = str(tmp_path / "profile.json")
        assert prof.write(path) == path
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        validate_profile(doc)
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["sample_every"] == 4

    def test_validate_rejects_wrong_schema(self):
        _, prof = profiled_run(cycles=200)
        doc = prof.report()
        doc["schema"] = "nope/v0"
        with pytest.raises(TelemetryError, match="schema"):
            validate_profile(doc)

    def test_validate_rejects_malformed_components(self):
        _, prof = profiled_run(cycles=200)
        doc = prof.report()
        doc["components"].append({"name": 7})
        with pytest.raises(TelemetryError, match="component"):
            validate_profile(doc)

    def test_validate_is_itemized(self):
        with pytest.raises(TelemetryError, match="sample_every"):
            validate_profile({"schema": PROFILE_SCHEMA, "sample_every": 0,
                              "lanes": {}, "components": []})
