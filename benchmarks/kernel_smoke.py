"""Compiled-kernel pulse-check: codegen a real mesh, prove equivalence.

``make kernel-smoke`` executes this script.  It builds the standard 4x4
mesh once per kernel mode with identical traffic -- the hand-written
interpreted loop, and the generated loop without (``"fast"``) and with
(``"compiled"``) specialized lanes -- and requires byte-identical
statistics digests: the whole kernel contract in one quick run.  The
compiled instance is driven through ``run_until`` with a stride, so the
smoke also exercises the predicate fast lane, and must put every
switch on a specialized lane.  See
``docs/PERFORMANCE.md`` for the kernel's design and
``tests/test_codegen_golden.py`` for the generated-source golden file.

Run directly::

    PYTHONPATH=src python benchmarks/kernel_smoke.py
"""

import sys
import time

from repro.network.experiments import TopologyNocBuilder
from repro.network.noc import NocBuildConfig
from repro.network.topology import mesh
from repro.network.traffic import UniformRandomTraffic

BUDGET_SECONDS = 60.0
CYCLES = 1500
RATE = 0.02


def build(kernel: str):
    builder = TopologyNocBuilder(
        mesh, (4, 4), n_initiators=8, n_targets=8,
        config=NocBuildConfig(kernel=kernel),
    )
    noc = builder()
    noc.populate(
        {
            c: UniformRandomTraffic(noc.topology.targets, RATE, seed=3 + i)
            for i, c in enumerate(noc.topology.initiators)
        },
    )
    return noc


def main() -> int:
    t0 = time.perf_counter()

    interp = build("interpreted")
    interp.run(CYCLES)
    fast = build("fast")
    fast.run(CYCLES)

    compiled = build("compiled")
    program = compiled.sim.compile()
    assert program.lanes.get("switch") == 16, program
    # Drive through the strided predicate lane up to the same boundary.
    compiled.sim.run_until(
        lambda: compiled.sim.cycle >= CYCLES, max_cycles=CYCLES, stride=250
    )
    assert compiled.sim.cycle == CYCLES

    want = interp.stats_digest()
    for kernel, noc in (("fast", fast), ("compiled", compiled)):
        got = noc.stats_digest()
        if got != want:
            print(f"FAIL: digest divergence interpreted={want[:16]}... "
                  f"{kernel}={got[:16]}...")
            return 1

    census = " ".join(f"{k}:{v}" for k, v in sorted(program.lanes.items()))
    elapsed = time.perf_counter() - t0
    print(f"  kernel smoke: {CYCLES} cycles, digests match ({want[:12]})")
    print(f"  completed {compiled.total_completed()} transactions, "
          f"lanes {census}")
    print(f"total: {elapsed:.1f}s (budget {BUDGET_SECONDS:.0f}s)")
    assert elapsed < BUDGET_SECONDS, (
        f"kernel smoke blew its budget: {elapsed:.1f}s >= "
        f"{BUDGET_SECONDS:.0f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
