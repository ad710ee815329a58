"""Pulse check for the DSE query service (docs/SERVICE.md).

Boots the real server -- ``python -m repro serve --port 0`` as a
subprocess, exactly the invocation ``make serve-smoke`` documents --
over a store pre-seeded by a work-stealing sweep, then holds the
service to its contract:

* the sweep dispatched through :class:`WorkStealingDispatcher` must be
  digest-identical to a serial ``explore_design_space`` run;
* a query covered by the sweep must come back ``served_from: "store"``
  with zero misses -- answered without re-simulating anything, from
  one store probe (``repro_store_hits`` moves by the slice size);
* a miss query (``"wait": true``) must be evaluated through the farm,
  land in the store, and the *same query again* must be a pure store
  hit, with the store's record count unchanged;
* the job endpoints must stream a ``repro.telemetry.events/v1``
  progress trail for an admitted background query;
* ``GET /healthz`` must report ok and ``GET /metrics`` must expose the
  ``repro_store_*`` / ``repro_serve_*`` series.

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
from repro.serve import WorkStealingDispatcher
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


def store_hits(base) -> int:
    """``repro_store_hits`` from ``/metrics`` (0 before the first get)."""
    _, text = http("GET", base + "/metrics")
    m = re.search(r"^repro_store_hits (\d+)", text, re.MULTILINE)
    return int(m.group(1)) if m else 0


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    store_dir = os.path.join(tempfile.mkdtemp(prefix="serve-smoke-"), "store")

    # 1. Seed the store through the work-stealing farm; hold the
    # dispatcher to the digest discipline.
    core_graph = demo_multimedia_soc()[2]
    serial = explore_design_space(core_graph, [mesh(2, 2), ring(4)], **SWEEP)
    runner = ExperimentRunner(store=ResultStore(store_dir), jobs=2)
    disp = WorkStealingDispatcher(runner, workers=2)
    farmed = explore_design_space(
        core_graph, [mesh(2, 2), ring(4)], runner=disp, **SWEEP
    )
    if farmed != serial:
        fail("dispatched sweep diverged from the serial run")
    if not pareto_frontier(farmed):
        fail("seeded sweep has an empty Pareto frontier")
    seeded = len(ResultStore(store_dir))
    print(f"seeded store: {seeded} records, {disp.dispatched} dispatched")

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

        # 3. The cached query: answered from the store, nothing re-run.
        hits_before = store_hits(base)
        status, body = http("POST", base + "/query", QUERY)
        doc = json.loads(body)
        if status != 200 or doc.get("served_from") != "store":
            fail("covered query was not served from the store", doc)
        if doc["store_misses"] != 0 or doc["store_hits"] != 4:
            fail("covered query should be 4 hits / 0 misses", doc)
        probes = store_hits(base) - hits_before
        if probes != doc["store_hits"]:
            fail(f"covered query cost {probes} store gets for "
                 f"{doc['store_hits']} points (want one probe per request)")
        if not doc.get("best") or doc["best"]["freq_mhz"] < 800:
            fail("query answer violates its own constraint", doc)
        print(f"store query: best={doc['best']['topology_name']} "
              f"area={doc['best']['area_mm2']:.3f} mm2 "
              f"({probes} store gets)")

        # 4. A miss, waited on: evaluated through the farm, published.
        miss = dict(QUERY, topologies=["mesh-2x2"], flit_widths=[16],
                    seed=9, wait=True)
        status, body = http("POST", base + "/query", miss)
        doc = json.loads(body)
        if status != 200 or doc.get("served_from") != "farm":
            fail("miss query was not evaluated through the farm", doc)
        if len(ResultStore(store_dir)) != seeded + 1:
            fail("miss did not land in the store")
        miss.pop("wait")
        status, body = http("POST", base + "/query", miss)
        doc = json.loads(body)
        if doc.get("served_from") != "store" or doc["store_misses"] != 0:
            fail("repeated miss query was not a store hit", doc)
        if len(ResultStore(store_dir)) != seeded + 1:
            fail("repeated query grew the store (it re-simulated)")
        print("miss -> farm -> hit: ok")

        # 5. A background job with an event trail.
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

        # 6. The Prometheus exposition.
        status, body = http("GET", base + "/metrics")
        if status != 200:
            fail("metrics endpoint failed", body)
        for series in ("repro_store_hits", "repro_store_puts",
                       "repro_serve_queries", "repro_serve_farm_queries",
                       "repro_serve_inflight"):
            if series not in body:
                fail(f"metrics exposition missing {series}", body[:1500])
        print("metrics exposition: ok")
    finally:
        proc.terminate()
        try:
            proc.wait(10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    print("SERVE SMOKE OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
