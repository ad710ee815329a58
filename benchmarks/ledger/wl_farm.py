"""The sweep workloads: ``sweep_farm`` (cold, writes) and ``sweep_warm``
(pure store hits), both through ``ExperimentRunner(store, jobs=2)``.

One operation is one ``explore_design_space`` call over the same
64-point grid.  Cold sweeps use a fresh ``seed`` per op, so every key
misses and every point is computed in the process pool and published;
warm sweeps re-ask seeds that were stored during set-up.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Dict, List

from repro.flow.dse import explore_design_space
from repro.flow.runner import ExperimentRunner
from repro.serve import WorkStealingDispatcher
from repro.serve.service import core_graph_from_name, topology_from_name
from repro.store import ResultStore

from ledger.harness import Workload, timed_loop
from ledger.stats import median
from ledger.trace import Recorder

TOPOLOGIES = ("mesh-2x2", "ring-4", "star-4", "spidergon-4")
WIDTHS = (16, 32, 64, 128)
DEPTHS = (2, 4, 6, 8)
ANNEAL = 600
JOBS = 2
PIN_SEED = 11


def _double(x: int) -> int:
    """The trivial point `serve.dispatch.spawn_ms` farms out."""
    return 2 * x


class Sweep(Workload):
    """Shared rig: the grid, a store under the run's temp dir, a runner."""

    def __init__(self, seed: int, quick: bool, out_dir: str) -> None:
        super().__init__(seed, quick, out_dir)
        self.topologies, self.widths, self.depths = TOPOLOGIES, WIDTHS, DEPTHS
        self.anneal = ANNEAL
        if quick:
            self.topologies, self.widths, self.depths = TOPOLOGIES[:2], WIDTHS[:2], DEPTHS[:1]
            self.anneal = 100
        self.n_points = len(self.topologies) * len(self.widths) * len(self.depths)
        self.core_graph = core_graph_from_name("multimedia")
        self.fabrics = [topology_from_name(t) for t in self.topologies]
        # Sweep seeds are consecutive from a seeded base: distinct, so
        # no cold sweep ever finds a sibling's records.
        self.base_seed = self.rng.randrange(1 << 20)
        self.runner: ExperimentRunner = None

    def sweep(self, seed: int, runner=None) -> List:
        return explore_design_space(
            self.core_graph, self.fabrics, flit_widths=self.widths,
            buffer_depths=self.depths, seed=seed,
            anneal_iterations=self.anneal, runner=runner,
        )

    def fresh_runner(self, jobs: int = JOBS) -> ExperimentRunner:
        return ExperimentRunner(store=ResultStore(self.tempdir("store")), jobs=jobs)

    def pins(self) -> dict:
        """The DSE models are deterministic: a change that is not meant
        to alter results must leave the seed-11 sweep identical."""
        points = explore_design_space(
            self.core_graph, [topology_from_name(t) for t in TOPOLOGIES[:2]],
            flit_widths=WIDTHS[:2], buffer_depths=DEPTHS[:2], seed=PIN_SEED,
            anneal_iterations=ANNEAL,
        )
        return {
            "points": len(points),
            "sweep_sha256": hashlib.sha256(repr(points).encode()).hexdigest(),
        }


class SweepFarm(Sweep):
    name = "sweep_farm"

    def __init__(self, seed: int, quick: bool, out_dir: str) -> None:
        super().__init__(seed, quick, out_dir)
        self.results: Dict[int, List] = {}

    def setup(self) -> None:
        self.runner = self.fresh_runner()
        # Warm-up: one pool round trip and one publish.
        self.runner.map(_double, [1, 2], label="warmup")

    def op(self, i: int) -> int:
        self.results[i] = self.sweep(self.base_seed + i, self.runner)
        return self.n_points

    def verify(self) -> None:
        for i, points in self.results.items():
            self.check(
                len(points) == self.n_points and all(p is not None for p in points),
                f"sweep {i}: {len(points)} points, expected {self.n_points}",
            )
        self.check(not self.runner.failures,
                   f"PointFailures: {[f.as_record() for f in self.runner.failures[:3]]}")
        serial = self.sweep(self.base_seed)
        self.check(self.results[0] == serial,
                   "pool sweep differs from the serial sweep of the same seed")
        again = self.sweep(self.base_seed, self.runner)
        self.check(again == serial, "re-run from the store differs from the serial sweep")
        self.check(len(self.runner.store) >= len(self.results) * self.n_points,
                   f"store holds {len(self.runner.store)} records for "
                   f"{len(self.results)} sweeps of {self.n_points}")

    def trace(self, rec: Recorder, seconds: float) -> Dict[str, float]:
        runner = self.fresh_runner()
        fn_sum: List[float] = []
        first = self.base_seed + 10_000  # clear of the timed ops' seeds

        def traced_op(i: int) -> int:
            with rec.span("flow.runner.map", request=i) as op:
                self.sweep(first + i, runner)
            fn_sum.append(sum(m.seconds for m in runner.last_manifests))
            self.traced_lat.append(op.seconds)
            return self.n_points

        lat, _ = timed_loop(traced_op, seconds, self.traced_ref)
        pool_wall = median(lat)
        with rec.span("flow.runner.map_warm", request=-1) as warm:
            for i in range(len(lat)):
                self.sweep(first + i, runner)
        out = {
            "flow.dse.fn_ms_per_point": median(fn_sum) / self.n_points * 1e3,
            "flow.runner.pool_overhead_ms_per_point":
                (pool_wall - median(fn_sum) / JOBS) / self.n_points * 1e3,
            "flow.runner.warm_us_per_point":
                warm.seconds / (len(lat) * self.n_points) * 1e6,
            "flow.runner.retries": runner.retry_count + runner.failure_count,
        }

        inline = self.fresh_runner(jobs=1)
        with rec.span("flow.runner.map_inline", request=-2) as span:
            self.sweep(first, inline)
        inline_fn = sum(m.seconds for m in inline.last_manifests)
        out["flow.runner.inline_overhead_ms_per_point"] = (
            (span.seconds - inline_fn) / self.n_points * 1e3)
        out["flow.runner.overhead_share"] = 1.0 - (inline_fn / JOBS) / pool_wall

        stealing = WorkStealingDispatcher(self.fresh_runner(), workers=JOBS)
        with rec.span("serve.dispatch.map", request=-3) as span:
            self.sweep(first, stealing)
        steal_fn = sum(m.seconds for m in stealing.last_manifests)
        with rec.span("serve.dispatch.spawn", request=-4) as spawn:
            stealing.map(_double, [1, 2], label="spawn")
        out.update({
            "serve.dispatch.overhead_ms_per_point":
                (span.seconds - steal_fn / JOBS) / self.n_points * 1e3,
            "serve.dispatch.spawn_ms": spawn.seconds * 1e3,
            "serve.dispatch.steals": stealing.steals,
            "serve.dispatch.restarts": stealing.worker_restarts,
        })
        out.update(store_micro(rec, ResultStore(self.tempdir("micro")),
                               self.results[0], 200 if self.quick else 2000))
        return out


def store_micro(rec: Recorder, store: ResultStore, values: List, n: int) -> Dict[str, float]:
    """Timed loops of ``n`` put / get / missing get on real result values."""
    keys = [hashlib.sha256(f"ledger-{i}".encode()).hexdigest() for i in range(n)]
    absent = [hashlib.sha256(f"absent-{i}".encode()).hexdigest() for i in range(n)]

    def loop(name: str, fn, args) -> float:
        lat = []
        with rec.span(name, request=-5):
            for a in args:
                t0 = time.perf_counter()
                fn(*a)
                lat.append(time.perf_counter() - t0)
        return median(lat) * 1e6

    put = loop("store.put", store.put,
               [(k, values[i % len(values)]) for i, k in enumerate(keys)])
    get = loop("store.get", store.get, [(k,) for k in keys])
    miss = loop("store.get_miss", store.get, [(k,) for k in absent])
    size = sum(os.path.getsize(store.record_path(k)) for k in keys) / n
    return {"store.put_us": put, "store.get_us": get,
            "store.get_miss_us": miss, "store.bytes_per_record": size}


class SweepWarm(Sweep):
    name = "sweep_warm"
    stored = 2  # sweeps in the store; ops cycle over them

    def setup(self) -> None:
        self.runner = self.fresh_runner()
        filler = ExperimentRunner(store=self.runner.store, jobs=1)
        self.expected = [self.sweep(self.base_seed + k, filler)
                         for k in range(self.stored)]
        self.sweep(self.base_seed, self.runner)  # warm-up: one all-hit pass
        self.hits_before = self.runner.cache_hits
        self.wrong = 0
        self.ops = 0

    def op(self, i: int) -> int:
        k = i % self.stored
        if self.sweep(self.base_seed + k, self.runner) != self.expected[k]:
            self.wrong += 1
        self.ops += 1
        return self.n_points

    def verify(self) -> None:
        self.tally(self.ops, self.wrong, "warm sweeps differed from the stored sweep")
        hits = self.runner.cache_hits - self.hits_before
        self.check(hits == self.ops * self.n_points and self.runner.cache_misses == 0,
                   f"{hits} store hits over {self.ops} warm sweeps of {self.n_points}, "
                   f"{self.runner.cache_misses} misses")
        serial = self.sweep(self.base_seed)
        self.check(serial == self.expected[0], "stored sweep differs from a serial recompute")

    def trace(self, rec: Recorder, seconds: float) -> Dict[str, float]:
        def traced_op(i: int) -> int:
            with rec.span("flow.runner.map_warm", request=i) as op:
                self.sweep(self.base_seed + i % self.stored, self.runner)
            self.traced_lat.append(op.seconds)
            return self.n_points

        lat, _ = timed_loop(traced_op, seconds, self.traced_ref)
        out = {"flow.runner.warm_us_per_point": median(lat) / self.n_points * 1e6}
        micro = store_micro(rec, ResultStore(self.tempdir("micro")),
                            self.expected[0], 200 if self.quick else 2000)
        out["store.get_us"] = micro["store.get_us"]
        return out
