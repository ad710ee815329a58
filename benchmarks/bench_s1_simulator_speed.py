"""S1 -- simulator performance: the three-kernel throughput matrix.

Not a paper figure, but a property any adopter of the library will ask
about: how fast does the cycle-accurate simulation view run?  This
bench times a 4x4 mesh under all three scheduler modes -- the classical
tick-everything loop, the activity-tracked fast path, and the compiled
codegen kernel -- at three operating points chosen to span the load
axis:

* ``standard`` (rate 0.002): the lightly loaded regime the original
  fast-path bench measured.  Enough traffic that the protocol FSMs do
  real per-cycle work.
* ``sparse`` (rate 0.0002): mostly idle; scheduling overhead dominates,
  which is exactly what static scheduling plus unrolled codegen
  (pymtl3's "mamba" technique) eliminates.
* ``idle`` (rate 0.0): the clock spins, nothing moves -- the pure
  scheduler-overhead measurement.

The compiled kernel's speedup over the fast path is load-dependent by
construction (see docs/PERFORMANCE.md): it removes per-cycle scheduling
and dispatch, not the protocol work itself, so the ratio grows as
activity thins out.  Asserted floors: compiled >= 2x over the fast path
at the standard point and >= 5x in the sparse-activity regime; the fast
path itself stays >= 2x over the interpreted loop at the standard
point.  That all three kernels complete identical work with
byte-identical statistics digests on this mesh is not re-checked here:
it is the per-run gate of the ledger's ``sim_sparse`` /
``sim_saturated`` workloads and ``tests/test_fastpath.py``.

Timing is run-only (build and one-off compilation excluded; compile
wall time is reported separately), best-of-3 to shrug off scheduler
noise.  The rows are printed, not written: wall-clock numbers are
host-dependent, and the tracked record of kernel speed is the ledger
(``benchmarks/ledger/``, ``sim.kernel.*.cycles_per_s``).  The measured
rows feed the table in ``docs/PERFORMANCE.md``.
"""

import time

from repro.network.experiments import TopologyNocBuilder
from repro.network.noc import NocBuildConfig
from repro.network.topology import mesh
from repro.network.traffic import UniformRandomTraffic

CYCLES = 2000
KERNELS = ("interpreted", "fast", "compiled")
#: Operating points: label -> injection rate (per master per cycle).
POINTS = (("standard", 0.002), ("sparse", 0.0002), ("idle", 0.0))
ROUNDS = 3


def build(kernel: str, rate: float):
    builder = TopologyNocBuilder(
        mesh, (4, 4), n_initiators=8, n_targets=8,
        config=NocBuildConfig(kernel=kernel),
    )
    noc = builder()
    noc.populate(
        {
            c: UniformRandomTraffic(noc.topology.targets, rate, seed=i)
            for i, c in enumerate(noc.topology.initiators)
        },
    )
    return noc


def time_kernel(kernel: str, rate: float):
    """Best-of-ROUNDS run-only seconds, plus the last run's NoC and the
    (worst observed) one-off compile time."""
    best = float("inf")
    compile_s = 0.0
    noc = None
    for _ in range(ROUNDS):
        noc = build(kernel, rate)
        if kernel == "compiled":
            t0 = time.perf_counter()
            noc.sim.compile()
            compile_s = max(compile_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        noc.run(CYCLES)
        best = min(best, time.perf_counter() - t0)
    return best, noc, compile_s


def main(runner):
    matrix = {}  # label -> kernel -> (seconds, noc)
    compile_s = 0.0
    for label, rate in POINTS:
        row = {}
        for kernel in KERNELS:
            seconds, noc, cs = time_kernel(kernel, rate)
            compile_s = max(compile_s, cs)
            row[kernel] = (seconds, noc)
        matrix[label] = row

    def speedup(label, num, den):
        return matrix[label][den][0] / matrix[label][num][0]

    std = matrix["standard"]
    fast_speedup = speedup("standard", "fast", "interpreted")
    compiled_std = speedup("standard", "compiled", "fast")
    compiled_sparse = speedup("sparse", "compiled", "fast")
    compiled_idle = speedup("idle", "compiled", "fast")
    sim = std["compiled"][1].sim
    skip_frac = sim.ticks_skipped / (sim.ticks_skipped + sim.ticks_executed)
    cps = CYCLES / std["compiled"][0]
    fps = std["compiled"][1].total_flits_carried() / std["compiled"][0]

    rows = [
        f"S1: simulation throughput (4x4 mesh, 16 cores, {CYCLES} cycles)",
        f"{'point':>9} {'rate':>7} {'interp':>9} {'fast':>9} {'compiled':>9}"
        f" {'comp/fast':>9}",
    ]
    for label, rate in POINTS:
        row = matrix[label]
        rows.append(
            f"{label:>9} {rate:>7} "
            f"{row['interpreted'][0] * 1e3:>7.1f}ms "
            f"{row['fast'][0] * 1e3:>7.1f}ms "
            f"{row['compiled'][0] * 1e3:>7.1f}ms "
            f"{speedup(label, 'compiled', 'fast'):>8.2f}x"
        )
    rows += [
        f"fast-path speedup (standard) : {fast_speedup:.2f}x over interpreted",
        f"compiled speedup  (standard) : {compiled_std:.2f}x over fast",
        f"compiled speedup  (sparse)   : {compiled_sparse:.2f}x over fast",
        f"compiled speedup  (idle)     : {compiled_idle:.2f}x over fast",
        f"one-off compile time         : {compile_s * 1e3:.1f} ms",
        f"ticks skipped (std, compiled): {skip_frac:.0%}",
        f"cycles per second            : {cps:,.0f}",
        f"flit-hops per second         : {fps:,.0f}",
    ]
    print("\n".join(rows))

    assert cps > 1000, "the simulator must manage >1k cycles/s on this mesh"
    assert std["compiled"][1].total_completed() > 0
    assert fast_speedup >= 2.0, (
        f"fast path must be worth >= 2x at low load, got {fast_speedup:.2f}x"
    )
    assert compiled_std >= 2.0, (
        f"compiled kernel must be worth >= 2x over the fast path at the "
        f"standard point, got {compiled_std:.2f}x"
    )
    assert max(compiled_sparse, compiled_idle) >= 5.0, (
        f"compiled kernel must be worth >= 5x over the fast path in the "
        f"sparse-activity regime, got sparse={compiled_sparse:.2f}x "
        f"idle={compiled_idle:.2f}x"
    )
