"""Chaos drill for the DSE farm's supervision layer (docs/RESILIENCE.md).

Exactly what ``python -m repro chaos`` runs, invoked in-process so the
assertions stay inspectable: a clean work-stealing sweep and a chaotic
one over the same points, where the seeded :class:`repro.chaos.ChaosPlan`
SIGKILLs a worker, SIGSTOP-wedges another, transiently freezes a third,
flips a byte in a just-written store record and truncates the event
log -- then the three supervision invariants are enforced:

1. the chaotic sweep's result digest is identical to the clean run's;
2. the journal records every point exactly once (quarantined poison
   points listed explicitly, never silently dropped);
3. no worker process survives the sweep.

A second drill feeds the dispatcher a poison-pill point that kills
every worker touching it and requires the pill to be quarantined after
``poison_threshold`` consecutive kills while the healthy points finish
untouched.

Exits non-zero with the violated invariants printed on any failure.
"""

import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.chaos import run_chaos, run_poison

SEED = 1307
POINTS = 12
WORKERS = 3


def fail(msg):
    print(f"CHAOS SMOKE FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    scratch = tempfile.mkdtemp(prefix="repro-chaos-smoke-")
    try:
        report = run_chaos(
            scratch, seed=SEED, points=POINTS, workers=WORKERS
        )
        print(report.render())
        if not report.ok:
            fail("; ".join(report.violations))
        if report.delivered.get("kills", 0) < 1:
            fail("no worker was killed -- the drill proved nothing")
        if report.delivered.get("stalls", 0) < 1:
            fail("no worker was stalled -- the drill proved nothing")
        if report.delivered.get("corruptions", 0) < 1:
            fail("no store record was corrupted -- the drill proved nothing")

        poison = run_poison(scratch)
        if not poison.ok:
            fail("poison drill: " + "; ".join(poison.violations))
        print(f"poison drill: quarantined {poison.poisoned_keys[0][:12]}... "
              f"after {poison.dispatcher['restarts']} worker restart(s); "
              f"{poison.journal_points} points journaled exactly once")
        print("CHAOS SMOKE OK")
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
