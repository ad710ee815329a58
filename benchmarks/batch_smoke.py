"""Pulse check for batched Monte-Carlo simulation (docs/BATCHING.md).

Two guarantees, end to end, through a real ``SIGKILL`` (lane identity
-- every lane digest equals a scalar rebuild, lane 0 equals the plain
campaign -- is tier-1's ``tests/test_batch.py`` and the ledger's
``batch_campaign`` gate, not repeated here):

* **Crash safety.**  A replicated campaign with checkpointing enabled
  is SIGKILLed the moment its first batch checkpoint (format v2, with
  the lane container) hits disk; the resumed run must reproduce the
  uninterrupted run's per-lane metrics exactly and clean up its
  checkpoint.
* **Event-stream integrity.**  The victim streams ``events.jsonl``
  (schema ``repro.telemetry.events/v1``, docs/OBSERVABILITY.md) while
  it runs and the resumed run appends to the same file.  After the
  kill-and-resume the stream must still validate (torn tail lines are
  tolerated, duplicate post-resume batches deduplicate last-wins), its
  replay must agree with the final :class:`CampaignResult` lane for
  lane, its per-lane digests must match the reference run's, and the
  Chrome-trace export plus the ``repro top`` dashboard summary built
  from it must both render.

Wired into ``make bench-smoke`` as ``make batch-smoke``.  Exits
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

from repro.faults import CampaignSpec, FaultWindow, run_campaign
from repro.network.experiments import TopologyNocBuilder
from repro.network.noc import NocBuildConfig
from repro.network.topology import mesh
from repro.telemetry import events as _events
from repro.telemetry.top import load_summary, render_dashboard

REPLICAS = 6
CHECKPOINT_EVERY = 150
KILL_DEADLINE = 120.0  # seconds before we give up waiting for a checkpoint


def campaign_spec() -> CampaignSpec:
    builder = TopologyNocBuilder(
        mesh, (2, 2), n_initiators=2, n_targets=2,
        config=NocBuildConfig(
            ni_txn_timeout=300, ni_txn_retries=1, link_resync_timeout=40
        ),
    )
    return CampaignSpec(
        builder=builder,
        windows=(FaultWindow("link.*", start=200, duration=1500, error_rate=0.05),),
        rate=0.08,
        warmup_cycles=200,
        measure_cycles=2500,
        seed=3,
        label="batch-smoke",
    )


def run_replicated(checkpoint_dir, resume):
    return run_campaign(
        campaign_spec(),
        REPLICAS,
        checkpoint_every=CHECKPOINT_EVERY,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )


def check_event_stream(events_path, reference_digests, resumed) -> bool:
    """The post-resume ``events.jsonl`` must validate, replay to the
    final campaign result, and feed the export/dashboard paths."""
    records = _events.read_events(events_path)
    try:
        _events.validate_events(records)
    except Exception as exc:  # TelemetryError carries the itemized list
        print(f"batch-smoke: FAIL -- events.jsonl does not validate: {exc}")
        return False
    summary = _events.replay_summary(records)
    ok = True
    if len(summary["lanes"]) != REPLICAS:
        print(
            f"batch-smoke: FAIL -- replay saw {len(summary['lanes'])} "
            f"lanes, campaign ran {REPLICAS}"
        )
        ok = False
    for name, want in resumed.lane_metrics.items():
        got = summary["lane_metrics"].get(name)
        if tuple(got or ()) != tuple(want):
            print(f"batch-smoke: FAIL -- replayed {name}: {got} != {want}")
            ok = False
    if summary["digests"] != list(reference_digests):
        print("batch-smoke: FAIL -- replayed lane digests != reference run")
        ok = False
    trace = _events.events_to_chrome_trace(records)
    if not any(e.get("ph") == "i" for e in trace):
        print("batch-smoke: FAIL -- Chrome-trace export produced no instants")
        ok = False
    frame = render_dashboard(
        load_summary(os.path.dirname(events_path)),
        os.path.dirname(events_path),
    )
    if f"lanes: {REPLICAS} finished" not in frame:
        print("batch-smoke: FAIL -- dashboard frame missing the lane line:")
        print(frame)
        ok = False
    if ok:
        print(
            f"batch-smoke: events.jsonl validated ({len(records)} records, "
            f"{summary['checkpoints']} checkpoints incl. pre-kill "
            f"duplicates) and replayed to the campaign result"
        )
    return ok


def main():
    if "--child" in sys.argv:
        # The victim: same replicated campaign, checkpointing to the
        # dir the parent gave us while streaming events.jsonl next to
        # it.  The parent SIGKILLs us mid-batch, so the stream's last
        # line may land torn -- the reader must shrug that off.
        i = sys.argv.index("--child")
        _events.install_file_sink(sys.argv[i + 2])
        run_replicated(sys.argv[i + 1], resume=False)
        return 0

    with tempfile.TemporaryDirectory() as scratch:
        ckpt = os.path.join(scratch, "ckpt")
        os.makedirs(ckpt)

        print("batch-smoke: reference replicated campaign (uninterrupted) ...")
        ref_col = _events.install_sink(_events.EventCollector())
        try:
            reference = run_campaign(campaign_spec(), REPLICAS)
        finally:
            _events.remove_sink(ref_col)
        reference_digests = _events.replay_summary(ref_col.records)["digests"]

        events_path = os.path.join(scratch, "events.jsonl")
        print("batch-smoke: starting victim, will SIGKILL mid-batch ...")
        child = subprocess.Popen(
            [
                sys.executable, os.path.abspath(__file__),
                "--child", ckpt, events_path,
            ],
            env=dict(os.environ),
        )
        deadline = time.monotonic() + KILL_DEADLINE
        try:
            while not glob.glob(os.path.join(ckpt, "campaign-*.ckpt")):
                if child.poll() is not None:
                    print(
                        "batch-smoke: FAIL -- victim finished before "
                        f"writing a checkpoint (exit {child.returncode})"
                    )
                    return 1
                if time.monotonic() > deadline:
                    print("batch-smoke: FAIL -- no checkpoint appeared in time")
                    return 1
                time.sleep(0.01)
            time.sleep(0.05)  # let the in-flight save land torn or whole
            child.send_signal(signal.SIGKILL)
        finally:
            if child.poll() is None and not child.returncode:
                child.kill()
            child.wait()

        print("batch-smoke: victim killed; resuming from its checkpoint ...")
        writer = _events.install_sink(_events.EventWriter(events_path))
        try:
            resumed = run_replicated(ckpt, resume=True)
        finally:
            _events.remove_sink(writer)
            writer.close()

        if resumed.lane_metrics != reference.lane_metrics:
            print("batch-smoke: FAIL -- resumed lanes diverge from reference")
            for name, want in reference.lane_metrics.items():
                got = resumed.lane_metrics[name]
                if got != want:
                    print(f"  {name}: resumed {got} != reference {want}")
            return 1
        if resumed.ci95 != reference.ci95:
            print("batch-smoke: FAIL -- resumed CIs diverge from reference")
            return 1
        if glob.glob(os.path.join(ckpt, "campaign-*.ckpt")):
            print("batch-smoke: FAIL -- finished batch left its checkpoint behind")
            return 1
        if not check_event_stream(events_path, reference_digests, resumed):
            return 1

        print(
            f"batch-smoke: OK -- kill-and-resume matched the uninterrupted "
            f"{REPLICAS}-lane campaign (accepted "
            f"{resumed.accepted_rate:.4f} +- {resumed.ci95['accepted_rate']:.4f})"
        )
        return 0


if __name__ == "__main__":
    sys.exit(main())
