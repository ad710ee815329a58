"""Pulse check for the fleet-telemetry dashboard (docs/OBSERVABILITY.md).

Drives a tiny sweep through :class:`ExperimentRunner` with a disk
cache so the run directory accumulates both fleet artifacts --
``events.jsonl`` (schema ``repro.telemetry.events/v1``, streamed by
the parent and forwarded from the workers) and the ``runs.jsonl``
journal -- then exercises the consumer side end to end:

* ``python -m repro top --dir DIR --once --prom FILE`` (a real
  subprocess, the same invocation ``make top-smoke`` documents) must
  exit 0, render the per-point table, and write a Prometheus text
  exposition;
* the dashboard's and the exposition's counts must agree with what the
  runner reported (that the stream itself validates and replays to
  the runner's counts is ``tests/test_events.py::TestRunnerEvents``);
* a second, fully cached sweep must show up as cache hits in the next
  frame.

Exits non-zero with the offending frame printed on any mismatch.
"""

import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.faults import CampaignSpec, FaultWindow, run_campaign
from repro.flow.runner import ExperimentRunner
from repro.network.experiments import TopologyNocBuilder
from repro.network.noc import NocBuildConfig
from repro.network.topology import mesh

POINTS = [0.02, 0.05, 0.08]


def sweep_point(rate: float):
    spec = CampaignSpec(
        builder=TopologyNocBuilder(
            mesh, (2, 2), n_initiators=2, n_targets=2,
            config=NocBuildConfig(
                ni_txn_timeout=300, ni_txn_retries=1, link_resync_timeout=40,
            ),
        ),
        windows=(FaultWindow("link.*", start=150, duration=400,
                             error_rate=0.05),),
        rate=rate,
        warmup_cycles=100,
        measure_cycles=800,
        seed=7,
        label=f"top-smoke rate={rate}",
    )
    return run_campaign(spec).accepted_rate


def run_top(cache: str, prom: str) -> "tuple[int, str]":
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "top",
         "--dir", cache, "--once", "--prom", prom],
        env=env, capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout


def main():
    with tempfile.TemporaryDirectory() as cache:
        runner = ExperimentRunner(jobs=2, cache_dir=cache)
        results = runner.map(sweep_point, POINTS, label="top-smoke")
        if len(results) != len(POINTS) or runner.failures:
            print("top-smoke: FAIL -- the sweep itself failed")
            return 1

        prom = os.path.join(cache, "metrics.prom")
        code, frame = run_top(cache, prom)
        if code != 0:
            print(f"top-smoke: FAIL -- repro top exited {code}")
            print(frame)
            return 1
        want = [
            f"points: {len(POINTS)} total",
            f"{len(POINTS)} ok",
            "[finished]",
            "cache-hit rate: 0%",
            "events.jsonl",
        ]
        missing = [w for w in want if w not in frame]
        if missing:
            print(f"top-smoke: FAIL -- frame is missing {missing}:")
            print(frame)
            return 1

        exposition = open(prom, encoding="utf-8").read()
        for line in (f"repro_top_points_ok {len(POINTS)}",
                     "repro_top_points_failed 0"):
            if line not in exposition:
                print(f"top-smoke: FAIL -- metrics.prom lacks {line!r}:")
                print(exposition)
                return 1

        # Second sweep: served from cache, visible as hits in the frame.
        runner.map(sweep_point, POINTS, label="top-smoke")
        code, frame = run_top(cache, prom)
        if code != 0 or f"{len(POINTS)} cached" not in frame:
            print("top-smoke: FAIL -- cached sweep not visible:")
            print(frame)
            return 1

        print(
            f"top-smoke: OK -- dashboard and metrics.prom "
            f"agree on {len(POINTS)} points (then {len(POINTS)} cache hits)"
        )
        return 0


if __name__ == "__main__":
    sys.exit(main())
