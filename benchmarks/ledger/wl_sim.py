"""The simulator workloads: ``sim_saturated``, ``sim_sparse``, ``batch_campaign``.

All three time public entry points only -- ``measure_load_point`` for
the scalar workloads, ``BatchSimulator.run_lanes`` for the campaign --
so a sweep point's fixed costs (build, populate, codegen) are inside
the timed op, as every sweep pays them.  The traced pass repeats the
same steps by hand with a span around each.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Optional

from repro.faults import FaultInjector, FaultWindow
from repro.network.experiments import (
    TopologyNocBuilder,
    measure_load_point,
    verify_fast_path,
)
from repro.network.noc import NocBuildConfig
from repro.network.topology import mesh
from repro.network.traffic import UniformRandomTraffic
from repro.sim.batch import SEED_STRIDE, BatchSimulator, mean_ci95
from repro.sim.kernel import SimulationError
from repro.telemetry.profile import KernelProfiler

from ledger.harness import Workload, timed_loop
from ledger.trace import Recorder

KERNELS = ("compiled", "fast", "interpreted")
PIN_SEED = 11
N_SEEDS = 64


def cross_kernel_digest(builder, **kwargs) -> str:
    """The common ``stats_digest`` of one workload under all three
    kernels.  A divergence comes back as text -- never equal to a pinned
    digest -- so the gate counts it instead of crashing the run."""
    try:
        return verify_fast_path(builder, kernels=KERNELS, **kwargs)
    except SimulationError as exc:
        return f"diverged: {exc}"


def _mesh_builder(kernel: Optional[str]) -> TopologyNocBuilder:
    config = NocBuildConfig(kernel=kernel) if kernel else None
    return TopologyNocBuilder(mesh, (4, 4), n_initiators=8, n_targets=8,
                              config=config)


class SimLoad(Workload):
    """One sweep point of a load curve on the 4x4 mesh, compiled kernel."""

    rate = 0.0
    warmup = 200
    measure = 0
    #: Cycles of the cross-kernel / pinned gate (fixed: the pins depend on it).
    gate_cycles = 0
    #: Window divisors for the traced re-runs under the other kernels.
    alt_kernels = {"fast": 10, "interpreted": 50}

    def __init__(self, seed: int, quick: bool, out_dir: str) -> None:
        super().__init__(seed, quick, out_dir)
        if quick:
            self.warmup, self.measure = 50, self.measure // 20
        self.builder = _mesh_builder("compiled")
        self.seeds = [self.rng.randrange(1 << 20) for _ in range(N_SEEDS)]
        self.points: Dict[int, object] = {}

    def _point(self, builder, seed: int, warmup: int, measure: int):
        return measure_load_point(builder, self.rate, warmup_cycles=warmup,
                                  measure_cycles=measure, seed=seed)

    def setup(self) -> None:
        # Warm-up op: lazy imports and codegen caches fill before timing.
        self._point(self.builder, self.seeds[-1], 100, max(100, self.measure // 20))

    def op(self, i: int) -> int:
        self.points[i] = self._point(
            self.builder, self.seeds[i % N_SEEDS], self.warmup, self.measure)
        return self.warmup + self.measure

    # -- correctness gate -------------------------------------------------
    def pins(self) -> dict:
        """Simulated statistics of the fixed seed-11 reference window:
        deterministic, so a simulator-only change must leave them
        identical."""
        digest = cross_kernel_digest(_mesh_builder(None), cycles=self.gate_cycles,
                                     rate=self.rate, seed=PIN_SEED)
        lp = self._point(self.builder, PIN_SEED, 100, self.gate_cycles)
        return {
            "stats_digest": digest,
            "accepted_rate": lp.accepted_rate,
            "mean_latency": lp.mean_latency,
            "completed": lp.completed,
        }

    def verify(self) -> None:
        for i, lp in self.points.items():
            self.check(
                lp.completed > 0 and math.isfinite(lp.mean_latency),
                f"op {i} (seed {self.seeds[i % N_SEEDS]}) measured nothing: {lp}",
            )
        digest = cross_kernel_digest(_mesh_builder(None), cycles=self.gate_cycles,
                                     rate=self.rate, seed=self.seeds[0])
        self.check(not digest.startswith("diverged"),
                   f"seed {self.seeds[0]}: {digest}")

    # -- traced pass ------------------------------------------------------
    def _traced_op(self, rec: Recorder, i: int, profiler: Optional[KernelProfiler]):
        seed = self.seeds[i % N_SEEDS]
        with rec.span("bench.op", request=i) as op:
            with rec.span("network.build"):
                noc = self.builder()
            with rec.span("network.populate"):
                noc.populate(
                    {c: UniformRandomTraffic(noc.topology.targets, self.rate,
                                             seed=seed + 17 * k)
                     for k, c in enumerate(noc.topology.initiators)},
                    max_outstanding=4,
                )
            if profiler is not None:
                noc.sim.set_profiler(profiler)
            with rec.span("sim.compiled.compile"):
                noc.sim.compile()
            with rec.span("sim.kernel.run"):
                noc.run(self.warmup)
            with rec.span("sim.kernel.run"):
                noc.run(self.measure)
        with rec.span("network.stats_digest", request=i):
            noc.stats_digest()
        return noc, op.seconds

    def trace(self, rec: Recorder, seconds: float) -> Dict[str, float]:
        nocs = []
        profiler = KernelProfiler()
        profiled = Recorder(self.name)  # spans of the profiled ops, not exported
        deadline = time.perf_counter() + seconds
        busy = 0.0
        i = 0
        while i < 2 or time.perf_counter() < deadline:
            # Even ops carry spans only (their timings feed the layer
            # metrics); odd ops add the lane profiler, whose wrappers
            # cost a call per tick.
            if i % 2 == 0:
                noc, op_s = self._traced_op(rec, i, None)
                nocs.append(noc)
            else:
                _, op_s = self._traced_op(profiled, i, profiler)
                self.traced_lat.append(op_s)
            busy += op_s
            self.traced_ref.top_up(busy)
            i += 1

        p50 = rec.p50
        cycles = self.warmup + self.measure
        run_s = p50("sim.kernel.run")
        profiled_run = sum(profiled.durations("sim.kernel.run"))
        executed = sum(n.sim.ticks_executed for n in nocs) / len(nocs)
        skipped = sum(n.sim.ticks_skipped for n in nocs) / len(nocs)
        lanes = profiler.report()["lanes"]

        def lane(*names: str) -> float:
            return sum(lanes.get(n, {}).get("est_seconds", 0.0)
                       for n in names) / profiled_run

        shares = {
            "sim.lane.switch_share": lane("switch"),
            "sim.lane.ni_share": lane("ni-initiator", "ni-target"),
            "sim.lane.link_share": lane("link"),
            "sim.lane.master_share": lane("master"),
        }
        out = {
            "network.build_ms": p50("network.build") * 1e3,
            "network.populate_ms": p50("network.populate") * 1e3,
            "network.stats_digest_ms": p50("network.stats_digest") * 1e3,
            "network.flits_carried": nocs[0].total_flits_carried(),
            "network.completed": nocs[0].total_completed(),
            "network.retransmissions": nocs[0].total_retransmissions(),
            "sim.compiled.compile_ms": p50("sim.compiled.compile") * 1e3,
            "sim.kernel.run_s": run_s,
            "sim.kernel.run_share": run_s / p50("bench.op"),
            "sim.kernel.us_per_cycle": run_s / cycles * 1e6,
            "sim.kernel.ticks_executed": executed,
            "sim.kernel.ticks_skipped": skipped,
            "sim.kernel.skipped_share": skipped / (skipped + executed),
            "sim.kernel.ns_per_tick": run_s / executed * 1e9,
            "sim.lane.other_share": 1.0 - sum(shares.values()),
            **shares,
        }
        # The other two kernels on a shortened window: no end-to-end
        # metric, but the evidence for keeping or deleting a kernel.
        for kernel, div in self.alt_kernels.items():
            window = max(100, self.measure // div)
            t0 = time.perf_counter()
            self._point(_mesh_builder(kernel), self.seeds[0], 100, window)
            out[f"sim.kernel.{kernel}.cycles_per_s"] = (
                (100 + window) / (time.perf_counter() - t0))
        return out


class SimSaturated(SimLoad):
    name = "sim_saturated"
    rate = 0.4
    measure = 800
    gate_cycles = 300
    alt_kernels = {"fast": 4, "interpreted": 10}


class SimSparse(SimLoad):
    name = "sim_sparse"
    rate = 0.002
    measure = 40_000
    gate_cycles = 3000


# -- batch_campaign: the bench_s4 rig ---------------------------------------

HORIZON = 100_000
BATCH_RATE = 0.002
MAX_TRANSACTIONS = 3
CORNER = "link.sw_0_0.p*"  # every link leaving the corner switch


def lane_windows(k: int):
    """Lane ``k``'s fault schedule: one burst shape at a lane-specific
    phase; lane 0 is the construction schedule."""
    return (FaultWindow(CORNER, start=500 + 97 * (k % 64), duration=400,
                        error_rate=0.2),)


def arm(noc) -> None:
    FaultInjector(noc, lane_windows(0))


def collect(noc, k: int) -> Dict[str, float]:
    return {
        "completed": float(noc.total_completed()),
        "mean_latency": noc.aggregate_latency().mean(),
        "retransmissions": float(noc.total_retransmissions()),
        "ticks_executed": float(noc.sim.ticks_executed),
        "ticks_skipped": float(noc.sim.ticks_skipped),
    }


class BatchCampaign(Workload):
    name = "batch_campaign"
    lanes = 64
    gate_lanes = 16
    gate_cycles = 5000

    def __init__(self, seed: int, quick: bool, out_dir: str) -> None:
        super().__init__(seed, quick, out_dir)
        if quick:
            self.lanes = 16
        self.builder = TopologyNocBuilder(
            mesh, (2, 2), n_initiators=2, n_targets=2,
            config=NocBuildConfig(kernel="compiled"))
        self.seeds = [self.rng.randrange(1 << 20) for _ in range(N_SEEDS)]
        self.results: Dict[int, object] = {}

    def build(self, seed: int, lane: int = 0):
        """The scalar construction of replica ``lane``."""
        noc = self.builder()
        FaultInjector(noc, lane_windows(lane))
        self.populate(noc, seed, lane)
        return noc

    @staticmethod
    def populate(noc, seed: int, lane: int = 0) -> None:
        noc.populate(
            {c: UniformRandomTraffic(noc.topology.targets, BATCH_RATE,
                                     seed=seed + 17 * i + lane * SEED_STRIDE)
             for i, c in enumerate(noc.topology.initiators)},
            max_transactions=MAX_TRANSACTIONS,
        )

    def batch(self, seed: int, lanes: int):
        noc = self.build(seed)
        sim = BatchSimulator(noc, lanes, lane_windows=lane_windows)
        return sim.run_lanes(HORIZON, collect, digest=True)

    def scalar_digest(self, seed: int, lane: int = 0) -> str:
        noc = self.build(seed, lane)
        noc.sim.compile()
        noc.run(HORIZON)
        return noc.stats_digest()

    def setup(self) -> None:
        self.batch(self.seeds[-1], 8)

    def op(self, i: int) -> int:
        self.results[i] = self.batch(self.seeds[i % N_SEEDS], self.lanes)
        return self.lanes

    def pins(self) -> dict:
        result = self.batch(PIN_SEED, self.gate_lanes)
        plain = TopologyNocBuilder(mesh, (2, 2), n_initiators=2, n_targets=2)
        three_way = cross_kernel_digest(
            plain, cycles=self.gate_cycles, rate=BATCH_RATE, seed=PIN_SEED,
            attach=arm, max_transactions=MAX_TRANSACTIONS)
        return {
            "lane0_digest": result.digests[0],
            "last_lane_digest": result.digests[-1],
            "mean_latency": result.reduced["mean_latency"]["mean"],
            "completed": float(result.metrics["completed"].sum()),
            "three_way_digest": three_way,
        }

    def verify(self) -> None:
        for i, result in self.results.items():
            done = result.metrics["completed"]
            self.check(
                bool((done == 2 * MAX_TRANSACTIONS).all()),
                f"op {i}: lanes did not finish their episode: {sorted(set(done))}",
            )
        first = self.results[0]
        scalar = self.scalar_digest(self.seeds[0])
        self.check(first.digests[0] == scalar,
                   f"lane 0 digest {first.digests[0][:16]} != scalar run {scalar[:16]}")
        last = self.lanes - 1
        scalar = self.scalar_digest(self.seeds[0], last)
        self.check(first.digests[last] == scalar,
                   f"lane {last} digest {first.digests[last][:16]} != scalar run {scalar[:16]}")

    def trace(self, rec: Recorder, seconds: float) -> Dict[str, float]:
        results = []

        def traced_op(i: int) -> int:
            seed = self.seeds[i % N_SEEDS]
            with rec.span("bench.op", request=i) as op:
                with rec.span("network.build"):
                    noc = self.builder()
                    FaultInjector(noc, lane_windows(0))
                with rec.span("network.populate"):
                    self.populate(noc, seed)
                with rec.span("sim.batch.setup"):
                    sim = BatchSimulator(noc, self.lanes, lane_windows=lane_windows)
                with rec.span("sim.batch.run_lanes"):
                    result = sim.run_lanes(HORIZON, collect, digest=True)
                with rec.span("sim.batch.reduce"):
                    for values in result.metrics.values():
                        mean_ci95(values)
            self.traced_lat.append(op.seconds)
            results.append(result)
            return self.lanes

        timed_loop(traced_op, seconds, self.traced_ref)
        executed = sum(r.metrics["ticks_executed"].sum() for r in results)
        skipped = sum(r.metrics["ticks_skipped"].sum() for r in results)
        n_lanes = len(results) * self.lanes

        runs = 2 if self.quick else 8
        t0 = time.perf_counter()
        for k in range(runs):
            with rec.span("sim.batch.scalar_run", request=-1 - k):
                self.scalar_digest(self.seeds[0], k)
        scalar_ms = (time.perf_counter() - t0) / runs * 1e3
        lane_ms = rec.p50("bench.op") / self.lanes * 1e3
        share = skipped / (skipped + executed)
        return {
            "network.build_ms": rec.p50("network.build") * 1e3,
            "network.populate_ms": rec.p50("network.populate") * 1e3,
            "sim.kernel.ticks_executed": executed / n_lanes,
            "sim.kernel.ticks_skipped": skipped / n_lanes,
            "sim.kernel.skipped_share": share,
            "sim.batch.setup_ms": rec.p50("sim.batch.setup") * 1e3,
            "sim.batch.ms_per_lane": rec.p50("sim.batch.run_lanes") / self.lanes * 1e3,
            "sim.batch.skipped_share": share,
            "sim.batch.reduce_ms": rec.p50("sim.batch.reduce") * 1e3,
            "sim.batch.scalar_ms_per_run": scalar_ms,
            "sim.batch.speedup_over_scalar": scalar_ms / lane_ms,
        }
