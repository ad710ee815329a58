"""The query workloads: ``query_hit`` and ``query_miss`` against the real
``python -m repro serve`` subprocess.

One client, one connection at a time, closed loop; the server gets
``--serve-workers 2 --max-inflight 2`` and never more.  The server
answers ``Connection: close``, so every request opens a new TCP
connection -- that cost is part of what a caller observes.  Every HTTP
answer is compared with the in-process ``QueryEngine`` answer for the
same body on the same store.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

import repro
from repro.flow.dse import explore_design_space, pareto_frontier
from repro.serve.service import (
    OBJECTIVES,
    QueryEngine,
    core_graph_from_name,
    parse_query,
    point_as_dict,
    topology_from_name,
)
from repro.store import ResultStore

from ledger.harness import Workload, timed_loop
from ledger.stats import median, percentile, supported_tail
from ledger.trace import OFF, Recorder

#: The server must import the same ``repro`` this process measures.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
TOPOLOGIES = ("mesh-2x2", "ring-4", "star-4", "spidergon-4", "mesh-2x3", "ring-6")
WIDTHS = (16, 32, 64, 128)
DEPTHS = (2, 4, 6, 8)
ANNEAL = 600
WORKERS = 2
COUNTERS = ("serve_http_requests", "serve_http_errors", "serve_queries",
            "serve_points_computed", "store_hits", "store_misses", "store_puts")


class Server:
    """The ``repro serve`` subprocess over one store directory."""

    def __init__(self, store_dir: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH", "")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", store_dir,
             "--port", "0", "--serve-workers", str(WORKERS),
             "--max-inflight", str(WORKERS)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        line = self.proc.stdout.readline()
        found = re.search(r"serving on http://([\d.]+):(\d+)", line)
        if not found:
            self.stop()
            raise RuntimeError(f"server did not announce its port: {line!r}")
        self.addr = (found.group(1), int(found.group(2)))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def request(self, method: str, path: str, body: Optional[bytes] = None,
                rec=OFF, request: Optional[int] = None) -> Tuple[int, bytes]:
        """One request on a new connection; client-observed, connect to
        last byte."""
        with rec.span("serve.http.request", request):
            conn = http.client.HTTPConnection(*self.addr, timeout=120)
            try:
                with rec.span("serve.http.connect"):
                    conn.connect()
                with rec.span("serve.http.exchange"):
                    conn.request(method, path, body,
                                 {"Content-Type": "application/json"})
                    resp = conn.getresponse()
                    return resp.status, resp.read()
            finally:
                conn.close()

    def counters(self) -> Dict[str, float]:
        """The ``repro_*`` counters this ledger reads from ``/metrics``
        (absent until first incremented, hence the zero default)."""
        _, text = self.request("GET", "/metrics")
        found = dict(re.findall(r"^repro_(\w+) ([\d.e+]+)$", text.decode(), re.M))
        return {name: float(found.get(name, 0)) for name in COUNTERS}


def strip(doc: dict) -> dict:
    """An answer minus its wall-clock field, in JSON's own types."""
    doc = json.loads(json.dumps(doc))
    doc.pop("seconds", None)
    return doc


class Query(Workload):
    """Shared rig: grid, bodies, server lifecycle, HTTP bookkeeping."""

    def __init__(self, seed: int, quick: bool, out_dir: str) -> None:
        super().__init__(seed, quick, out_dir)
        self.topologies, self.widths, self.depths = TOPOLOGIES, WIDTHS, DEPTHS
        self.anneal = ANNEAL
        if quick:
            self.topologies, self.widths, self.depths = TOPOLOGIES[:2], WIDTHS[:2], DEPTHS[:2]
            self.anneal = 100
        self.server: Optional[Server] = None
        self.store_dir = ""
        self.replies: List[Tuple[int, int, bytes]] = []  # (body index, status, body)
        self.rejected = 0

    def body(self, topologies, widths, depths, seed: int, **extra) -> dict:
        return {"core_graph": "multimedia", "topologies": list(topologies),
                "flit_widths": list(widths), "buffer_depths": list(depths),
                "seed": seed, "anneal_iterations": self.anneal, **extra}

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def rss_mb(self) -> float:
        return self.server.rss_mb()

    def send(self, index: int, payload: bytes, rec=OFF, request=None) -> None:
        status, data = self.server.request("POST", "/query", payload, rec, request)
        if status == 429:
            self.rejected += 1
        self.replies.append((index, status, data))

    def check_counters(self, sent: int, **expected: float) -> Dict[str, float]:
        """``/metrics`` must agree with what the client sent.  The
        closing scrape counts itself, hence ``sent + 1``."""
        after = self.server.counters()
        delta = {k: after[k] - self.before[k] for k in after}
        expected = {"serve_http_requests": sent + 1, "serve_http_errors": 0,
                    **expected}
        for name, want in expected.items():
            self.check(delta[name] == want,
                       f"/metrics {name} moved by {delta[name]:g}, expected {want:g}")
        self.before = after
        return delta

    def http_layers(self, rec: Recorder, lat: List[float],
                    delta: Dict[str, float], posts: int) -> Dict[str, float]:
        pct, tail, _ = supported_tail(lat)
        return {
            "serve.http.connect_ms": rec.p50("serve.http.connect") * 1e3,
            "serve.http.tail_ms": tail * 1e3,
            "serve.http.tail_pct": pct,
            "serve.http.requests": delta["serve_http_requests"],
            "serve.http.errors": delta["serve_http_errors"],
            "serve.http.rejected": self.rejected,
            "store.gets_per_request":
                (delta["store_hits"] + delta["store_misses"]) / posts,
        }


class QueryHit(Query):
    name = "query_hit"
    warmup = 30

    def __init__(self, seed: int, quick: bool, out_dir: str) -> None:
        super().__init__(seed, quick, out_dir)
        rng = self.rng
        self.grid_seed = rng.randrange(1 << 20)
        # The mix of slice shapes is the same for every seed (18 shapes,
        # 2 to 32 points, equally often); the seed picks which
        # topologies, widths, depths, objective and constraint fill each
        # shape, and the order they are asked in.
        n_topo = (1, 2) if quick else (1, 2, 4)
        n_width = (2,) if quick else (2, 3, 4)
        copies = 4 if quick else 14
        self.pool = [
            self.body(rng.sample(self.topologies, nt), rng.sample(self.widths, nw),
                      rng.sample(self.depths, nd), self.grid_seed,
                      objective=rng.choice(sorted(OBJECTIVES)),
                      min_freq_mhz=rng.choice((0, 800, 1000)))
            for nt in n_topo for nw in n_width for nd in (1, 2)
            for _ in range(copies)
        ]
        self.payloads = [json.dumps(b).encode() for b in self.pool]
        self.order: List[int] = []
        for _ in range(64):  # more passes than any run can ask
            self.order += rng.sample(range(len(self.pool)), len(self.pool))
        if quick:
            self.warmup = 3

    def setup(self) -> None:
        self.store_dir = self.tempdir("store")
        seeded = QueryEngine(ResultStore(self.store_dir), workers=1).query(
            parse_query(self.body(self.topologies, self.widths, self.depths,
                                  self.grid_seed)))
        self.grid_points = len(seeded.points)
        self.server = Server(self.store_dir)
        for k in range(self.warmup):
            self.server.request("POST", "/query", self.payloads[-1 - k])
        self.before = self.server.counters()

    def op(self, i: int) -> int:
        index = self.order[i]
        self.send(index, self.payloads[index])
        return 1

    def verify(self) -> None:
        self.check_counters(
            len(self.replies), serve_queries=len(self.replies),
            serve_points_computed=0, store_puts=0)
        engine = QueryEngine(ResultStore(self.store_dir), workers=WORKERS)
        expected = [strip(engine.query(parse_query(b), evaluate=False).as_dict())
                    for b in self.pool]
        wrong = 0
        for index, status, data in self.replies:
            if status != 200 or strip(json.loads(data)) != expected[index]:
                wrong += 1
                if wrong == 1:
                    self.problems.append(
                        f"body {index} answered {status}: {data[:300]!r}")
        self.tally(len(self.replies), wrong,
                   "HTTP answers differ from the in-process answer")
        self.check(all(e["served_from"] == "store" and e["store_misses"] == 0
                       for e in expected), "a covered slice was not a pure store hit")

    def trace(self, rec: Recorder, seconds: float) -> Dict[str, float]:
        untraced = len(self.replies)

        def traced_op(i: int) -> int:
            index = self.order[untraced + i]
            self.send(index, self.payloads[index], rec, i)
            return 1

        lat, _ = timed_loop(traced_op, seconds, self.traced_ref)
        self.traced_lat = lat
        delta = self.check_counters(len(lat))

        # The same bodies replayed in-process against the same store.
        engine = QueryEngine(ResultStore(self.store_dir), workers=WORKERS)
        for index, body in enumerate(self.pool):
            with rec.span("serve.service.replay", request=-1 - index):
                with rec.span("serve.service.parse"):
                    spec = parse_query(body)
                with rec.span("serve.service.keys"):
                    engine.keys(spec)
                with rec.span("serve.service.lookup"):
                    engine.lookup(spec)
                with rec.span("serve.service.query"):
                    result = engine.query(spec, evaluate=False)
                with rec.span("serve.service.serialize"):
                    json.dumps(result.as_dict())
                with rec.span("flow.dse.pareto"):
                    pareto_frontier(result.points)
        # What the handler does per request, less the extra keys() and
        # Pareto passes that were timed on their own above.
        handler = (rec.p50("serve.service.parse") + rec.p50("serve.service.lookup")
                   + rec.p50("serve.service.query") + rec.p50("serve.service.serialize"))
        query_ms = rec.p50("serve.service.query") * 1e3
        keys_ms = rec.p50("serve.service.keys") * 1e3
        out = self.http_layers(rec, lat, delta, len(lat))
        out.update({
            "serve.service.parse_us": rec.p50("serve.service.parse") * 1e6,
            "serve.service.keys_ms": keys_ms,
            "serve.service.lookup_ms": rec.p50("serve.service.lookup") * 1e3,
            "serve.service.query_inproc_ms": query_ms,
            "serve.service.serialize_us": rec.p50("serve.service.serialize") * 1e6,
            "serve.service.keys_share": keys_ms / query_ms,
            "serve.http.wire_ms": (median(lat) - handler) * 1e3,
            "flow.dse.pareto_us": rec.p50("flow.dse.pareto") * 1e6,
        })
        return out


class QueryMiss(Query):
    name = "query_miss"
    shape = (2, 3, 2)  # topologies x widths x depths = 12 points per request

    def __init__(self, seed: int, quick: bool, out_dir: str) -> None:
        super().__init__(seed, quick, out_dir)
        if quick:
            self.shape = (1, 2, 1)
        self.n_points = self.shape[0] * self.shape[1] * self.shape[2]
        rng = self.rng
        # Every request asks under its own `seed`, so nothing it needs
        # is ever in the store: consecutive from a seeded base.
        self.base_seed = rng.randrange(1 << 20)
        self.pool = [self.slice(rng, self.base_seed + i) for i in range(1024)]
        self.payloads = [json.dumps(dict(b, wait=True)).encode() for b in self.pool]

    def slice(self, rng, seed: int) -> dict:
        nt, nw, nd = self.shape
        return self.body(rng.sample(self.topologies, nt), rng.sample(self.widths, nw),
                         rng.sample(self.depths, nd), seed)

    def setup(self) -> None:
        self.store_dir = self.tempdir("store")
        ResultStore(self.store_dir)
        self.server = Server(self.store_dir)
        # Warm-up: one farmed request, from the far end of the pool.
        self.server.request("POST", "/query", self.payloads[-1])
        self.before = self.server.counters()

    def op(self, i: int) -> int:
        self.send(i, self.payloads[i])
        return self.n_points

    def verify(self) -> None:
        sent = len(self.replies)
        wrong = 0
        farmed = {}
        for index, status, data in self.replies:
            doc = json.loads(data) if status == 200 else {}
            if (doc.get("served_from") != "farm"
                    or doc.get("store_misses") != self.n_points
                    or len(doc.get("points", ())) != self.n_points):
                wrong += 1
                if wrong == 1:
                    self.problems.append(
                        f"miss {index} answered {status}: {data[:300]!r}")
            farmed[index] = doc
        self.tally(sent, wrong, "misses were not computed through the farm")
        self.check_counters(
            sent, serve_points_computed=sent * self.n_points,
            store_puts=sent * self.n_points)

        # Re-ask every slice without `wait`: now a pure hit, same points,
        # and equal to the in-process answer on the same store.
        engine = QueryEngine(ResultStore(self.store_dir), workers=WORKERS)
        wrong = 0
        for index in sorted(farmed):
            status, data = self.server.request(
                "POST", "/query", json.dumps(self.pool[index]).encode())
            doc = strip(json.loads(data)) if status == 200 else {}
            want = strip(engine.query(parse_query(self.pool[index]),
                                      evaluate=False).as_dict())
            if (doc != want or doc["served_from"] != "store"
                    or doc["points"] != farmed[index].get("points")):
                wrong += 1
                if wrong == 1:
                    self.problems.append(f"re-ask {index} answered {status}: {data[:300]!r}")
        self.tally(len(farmed), wrong, "re-asked slices were not pure, identical hits")
        serial = self.serial(self.pool[0])
        self.check(
            [strip(point_as_dict(p)) for p in serial] == farmed[0].get("points"),
            "farmed points differ from a serial explore_design_space")
        self.before = self.server.counters()

    def serial(self, body: dict) -> list:
        return explore_design_space(
            core_graph_from_name(body["core_graph"]),
            [topology_from_name(t) for t in body["topologies"]],
            flit_widths=body["flit_widths"], buffer_depths=body["buffer_depths"],
            seed=body["seed"], anneal_iterations=body["anneal_iterations"])

    def trace(self, rec: Recorder, seconds: float) -> Dict[str, float]:
        untraced = len(self.replies)

        def traced_op(i: int) -> int:
            index = untraced + i
            self.send(index, self.payloads[index], rec, i)
            return self.n_points

        lat, _ = timed_loop(traced_op, seconds, self.traced_ref)
        self.traced_lat = lat
        delta = self.check_counters(len(lat))
        ok = sum(1 for _, status, _ in self.replies[untraced:] if status == 200)
        self.tally(len(lat), len(lat) - ok, "traced misses failed")

        # Same-shape fresh-seed slices through an in-process engine on a
        # fresh store: the miss path without HTTP.
        engine = QueryEngine(ResultStore(self.tempdir("inproc")), workers=WORKERS)
        specs = [parse_query(b) for b in self.pool[-2 - (2 if self.quick else 8):-2]]
        for k, spec in enumerate(specs):
            with rec.span("serve.service.keys", request=-1 - k):
                engine.keys(spec)
            with rec.span("serve.service.lookup", request=-1 - k):
                engine.lookup(spec)
            with rec.span("serve.miss.inproc", request=-1 - k):
                engine.query(spec)
        with rec.span("flow.dse.serial", request=-100) as serial:
            self.serial(self.pool[-2])
        inproc = rec.p50("serve.miss.inproc")
        out = self.http_layers(rec, lat, delta, len(lat))
        out.update({
            "serve.miss.p75_ms": percentile(lat, 75) * 1e3,
            "serve.miss.inproc_ms": inproc * 1e3,
            "serve.miss.farm_share":
                (inproc - rec.p50("serve.service.lookup")
                 - serial.seconds / WORKERS) / inproc,
            "serve.service.keys_ms": rec.p50("serve.service.keys") * 1e3,
            "serve.service.lookup_ms": rec.p50("serve.service.lookup") * 1e3,
            "serve.service.keys_share": rec.p50("serve.service.keys") / inproc,
            "flow.dse.fn_ms_per_point": serial.seconds / self.n_points * 1e3,
        })
        return out
