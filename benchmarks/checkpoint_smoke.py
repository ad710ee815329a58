"""Kill-and-resume pulse check for crash-safe campaigns.

The end-to-end version of the differential tests in
``tests/test_snapshot.py`` (docs/CHECKPOINT.md): run a small fault
sweep with checkpointing enabled, SIGKILL the process the moment its
first simulator checkpoint hits disk, resume, and require

* the resumed sweep's results to equal an uninterrupted run's, and
* every point the killed process had journaled as complete to be
  served from cache, never recomputed.

Wired into ``make bench-smoke`` as ``make checkpoint-smoke``.  Exits
non-zero (with the mismatch printed) on any divergence.
"""

import glob
import os
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.faults import CampaignSpec, FaultCampaign, FaultWindow
from repro.flow.runner import ExperimentRunner, read_journal
from repro.network.experiments import TopologyNocBuilder
from repro.network.topology import mesh

CHECKPOINT_EVERY = 250
KILL_DEADLINE = 120.0  # seconds before we give up waiting for a checkpoint


def sweep_specs():
    builder = TopologyNocBuilder(mesh, (2, 2), n_initiators=2, n_targets=2)
    window = FaultWindow("link.*", start=200, duration=1500, error_rate=0.05)
    return [
        CampaignSpec(
            builder=builder,
            windows=(window,),
            rate=0.08,
            warmup_cycles=200,
            measure_cycles=5000,
            seed=seed,
            label=f"ckpt-smoke-{seed}",
        )
        for seed in (3, 4)
    ]


def run_sweep(cache_dir, checkpoint_dir, resume):
    runner = ExperimentRunner(jobs=1, cache_dir=cache_dir)
    campaign = FaultCampaign(
        sweep_specs(),
        runner=runner,
        checkpoint_every=CHECKPOINT_EVERY,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
    return campaign.run(), runner


def completed_points(cache_dir):
    """Keys journaled as ok by a (possibly killed) previous run."""
    return {
        record["key"]
        for record in read_journal(os.path.join(cache_dir, "runs.jsonl"))
        if record["status"] == "ok"
    }


def main():
    if "--child" in sys.argv:
        # The victim: same sweep, checkpointing to the dirs the parent
        # gave us.  The parent SIGKILLs us mid-measurement.
        cache_dir, checkpoint_dir = sys.argv[2], sys.argv[3]
        run_sweep(cache_dir, checkpoint_dir, resume=False)
        return 0

    with tempfile.TemporaryDirectory() as scratch:
        ref_cache = os.path.join(scratch, "ref-cache")
        ref_ckpt = os.path.join(scratch, "ref-ckpt")
        cache = os.path.join(scratch, "cache")
        ckpt = os.path.join(scratch, "ckpt")
        for d in (ref_cache, ref_ckpt, cache, ckpt):
            os.makedirs(d)

        print("checkpoint-smoke: reference run (uninterrupted) ...")
        reference, _ = run_sweep(ref_cache, ref_ckpt, resume=False)

        # Kill once the victim has BOTH a completed, journaled point and
        # a mid-flight checkpoint for the next one: the resume must then
        # serve the former from cache and restore the latter from disk.
        print(
            "checkpoint-smoke: starting victim, will SIGKILL mid-second-campaign ..."
        )
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--child", cache, ckpt],
            env=dict(os.environ),
        )
        deadline = time.monotonic() + KILL_DEADLINE
        try:
            while not (
                completed_points(cache)
                and glob.glob(os.path.join(ckpt, "campaign-*.ckpt"))
            ):
                if child.poll() is not None:
                    print(
                        "checkpoint-smoke: FAIL -- victim finished before "
                        f"writing a checkpoint (exit {child.returncode})"
                    )
                    return 1
                if time.monotonic() > deadline:
                    print("checkpoint-smoke: FAIL -- no checkpoint appeared in time")
                    return 1
                time.sleep(0.02)
            child.send_signal(signal.SIGKILL)
        finally:
            if child.poll() is None and not child.returncode:
                child.kill()
            child.wait()

        survived = completed_points(cache)
        print(
            f"checkpoint-smoke: victim killed; {len(survived)} point(s) "
            "journaled complete, resuming ..."
        )

        resumed, runner = run_sweep(cache, ckpt, resume=True)

        if resumed != reference:
            print("checkpoint-smoke: FAIL -- resumed results diverge from reference")
            for got, want in zip(resumed, reference):
                if got != want:
                    print(f"  resumed:   {got}")
                    print(f"  reference: {want}")
            return 1
        if runner.cache_hits < len(survived):
            print(
                "checkpoint-smoke: FAIL -- resume recomputed journaled points "
                f"(cache_hits={runner.cache_hits} < completed={len(survived)})"
            )
            return 1
        if glob.glob(os.path.join(ckpt, "campaign-*.ckpt")):
            print("checkpoint-smoke: FAIL -- finished campaigns left checkpoints behind")
            return 1

        print(
            "checkpoint-smoke: OK -- kill-and-resume matched the uninterrupted "
            f"run ({len(resumed)} campaigns, {runner.cache_hits} served from "
            f"cache)"
        )
        return 0


if __name__ == "__main__":
    sys.exit(main())
