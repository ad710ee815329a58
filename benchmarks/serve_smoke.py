"""Pulse check for the DSE query service (docs/SERVICE.md).

Boots the real server -- ``python -m repro serve --port 0`` as a
subprocess, exactly the invocation ``make serve-smoke`` documents --
over a store pre-seeded by a pooled sweep, then holds the running
process to the parts of its contract nothing else checks on a real
subprocess:

* ``GET /healthz`` must report ok and count the seeded records;
* a miss without ``"wait"`` must be a ``202`` job whose
  ``/jobs/<id>`` and ``/jobs/<id>/events`` endpoints stream a
  ``repro.telemetry.events/v1`` progress trail to completion;
* the farm outlives the query: the worker pids are stable across two
  further misses, and SIGTERM reaps them and exits 0.

What it no longer repeats, because the ledger's ``query_hit`` /
``query_miss`` workloads gate it against this same subprocess on every
run (``make bench-smoke`` runs them through ``selfcheck.py``) and
``tests/test_serve.py`` / ``tests/test_dispatch.py`` do in tier-1: a
farmed sweep equals the serial one; a covered query is a pure store
hit costing one probe per point; a waited miss lands in the store and
hits on repeat; ``/metrics`` exposes the store/serve series.

Exits non-zero with the offending response printed on any violation.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.flow.dse import explore_design_space, pareto_frontier
from repro.flow.runner import ExperimentRunner
from repro.flow.taskgraph import demo_multimedia_soc
from repro.network.topology import mesh, ring
from repro.store import ResultStore

SWEEP = dict(flit_widths=(16, 64), buffer_depths=(4,), seed=2,
             anneal_iterations=200)
QUERY = {
    "core_graph": "multimedia",
    "topologies": ["mesh-2x2", "ring-4"],
    "flit_widths": [16, 64],
    "buffer_depths": [4],
    "seed": 2,
    "anneal_iterations": 200,
    "min_freq_mhz": 800,
    "objective": "area",
}


def fail(msg, payload=None):
    print(f"SERVE SMOKE FAILED: {msg}", file=sys.stderr)
    if payload is not None:
        print(json.dumps(payload, indent=2)[:2000], file=sys.stderr)
    sys.exit(1)


def http(method, url, doc=None, timeout=120):
    data = None if doc is None else json.dumps(doc).encode()
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as r:
            return r.status, r.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()


def children_of(pid):
    """Live (not zombie) processes whose parent is ``pid``."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == str(pid) and fields[0] != "Z":
            found.append(int(entry))
    return sorted(found)


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    store_dir = os.path.join(tempfile.mkdtemp(prefix="serve-smoke-"), "store")

    # 1. Seed the store through the pool.
    runner = ExperimentRunner(store=ResultStore(store_dir), jobs=2)
    farmed = explore_design_space(
        demo_multimedia_soc()[2], [mesh(2, 2), ring(4)], runner=runner, **SWEEP
    )
    if not pareto_frontier(farmed):
        fail("seeded sweep has an empty Pareto frontier")
    seeded = len(ResultStore(store_dir))
    print(f"seeded store: {seeded} records")

    # 2. Boot the real server on a free port.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", store_dir,
         "--port", "0", "--serve-workers", "2", "--max-inflight", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        line = proc.stdout.readline()
        m = re.search(r"serving on (http://[\d.]+:\d+)", line)
        if not m:
            fail(f"server did not announce its port: {line!r}")
        base = m.group(1)
        print(f"server up at {base}")

        status, body = http("GET", base + "/healthz")
        health = json.loads(body)
        if status != 200 or health.get("status") != "ok":
            fail("healthz not ok", health)
        if health["records"] != seeded:
            fail(f"healthz sees {health['records']} records, "
                 f"seeded {seeded}", health)

        # 3. A background job with an event trail.
        job_query = dict(QUERY, topologies=["ring-4"], flit_widths=[64],
                         seed=21)
        status, body = http("POST", base + "/query", job_query)
        doc = json.loads(body)
        if status != 202 or "job" not in doc:
            fail("miss without wait should be a 202 job", doc)
        job = doc["job"]
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status, body = http("GET", f"{base}/jobs/{job}")
            jd = json.loads(body)
            if jd["status"] != "running":
                break
            time.sleep(0.1)
        if jd.get("status") != "done":
            fail("background job did not finish", jd)
        status, body = http("GET", f"{base}/jobs/{job}/events?since=0")
        events = [e["event"] for e in json.loads(body)["events"]]
        if events[:1] != ["run_start"] or "point_end" not in events:
            fail(f"job event trail incomplete: {events}")
        print(f"job {job}: {len(events)} events, trail {events}")

        # 4. The farm is kept: once both workers exist (the one-row
        # job needed only one), later misses fork nothing.
        def miss(seed):
            status, body = http("POST", base + "/query",
                                dict(QUERY, seed=seed, wait=True))
            if status != 200 or json.loads(body)["served_from"] != "farm":
                fail("waited miss was not farmed", json.loads(body))
            return children_of(proc.pid)

        workers = miss(22)
        if len(workers) != 2:
            fail(f"expected 2 kept workers after a miss, found {workers}")
        for seed in (23, 24):
            if miss(seed) != workers:
                fail(f"worker pids moved: {workers} -> {children_of(proc.pid)}")
        status, body = http("GET", base + "/healthz")
        if json.loads(body).get("farm_workers") != 2:
            fail("healthz does not count the kept workers", json.loads(body))
        print(f"workers {workers} stable across 2 further misses")

        # 5. SIGTERM: reap the farm, exit 0.
        proc.terminate()
        try:
            code = proc.wait(10)
        except subprocess.TimeoutExpired:
            fail("server ignored SIGTERM for 10 s")
        if code != 0:
            fail(f"server exited {code} on SIGTERM, expected 0")
        left = children_of(proc.pid) + [
            pid for pid in workers if os.path.exists(f"/proc/{pid}")]
        if left:
            fail(f"workers outlived the server: {left}")
        print("SIGTERM: exit 0, no worker left")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    print("SERVE SMOKE OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
