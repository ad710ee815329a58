"""QueryEngine and the HTTP front end of the DSE service."""

import asyncio
import json
import multiprocessing
import re
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.flow.dse import explore_design_space
from repro.flow.taskgraph import demo_multimedia_soc
from repro.network.topology import mesh
from repro.serve import (
    CircuitBreaker,
    FarmUnavailable,
    QueryEngine,
    QueryError,
    QuerySpec,
    core_graph_from_name,
    parse_query,
    topology_from_name,
)
from repro.serve.http import QueryServer
from repro.serve.service import MAX_QUERY_POINTS, MAX_TOPOLOGY_SWITCHES
from repro.store import ResultStore
from repro.telemetry.registry import MetricsRegistry

# Small enough to evaluate in milliseconds, deterministic.
FAST = dict(
    topologies=("mesh-2x2",),
    flit_widths=(16,),
    buffer_depths=(4,),
    anneal_iterations=50,
)


class TestNames:
    def test_grid_and_count_families(self):
        assert topology_from_name("mesh-3x2").name == "mesh3x2"
        assert topology_from_name("torus-3x3").name == "torus3x3"
        assert topology_from_name("ring-5").name == "ring5"
        assert topology_from_name("hypercube-3").name == "hcube3"

    @pytest.mark.parametrize(
        "bad", ["mesh", "mesh-", "mesh-ax2", "blob-4", "ring-x", "", 7]
    )
    def test_bad_topology_names_raise(self, bad):
        with pytest.raises(QueryError):
            topology_from_name(bad)

    @pytest.mark.parametrize(
        "name",
        ["mesh-1000x1000", "mesh-32x33", "torus-1x1025", "ring-2000000",
         "star-1025", "fully_connected-3000", "fully_connected-46",
         "hypercube-4000", "fat_tree-" + "9" * 400],
    )
    def test_oversized_names_are_refused_before_building(self, name):
        t0 = time.perf_counter()
        with pytest.raises(QueryError, match="limit"):
            topology_from_name(name)
        assert time.perf_counter() - t0 < 0.1

    def test_names_at_the_limit_still_build(self):
        assert MAX_TOPOLOGY_SWITCHES == 1024
        assert len(topology_from_name("mesh-32x32").switches) == 1024
        assert len(topology_from_name("ring-1024").switches) == 1024
        assert len(topology_from_name("fully_connected-45").switches) == 45

    def test_core_graphs(self):
        assert core_graph_from_name("multimedia").cores
        with pytest.raises(QueryError, match="telecom"):
            core_graph_from_name("dvb")

    def test_same_name_same_cache_token(self):
        a = topology_from_name("mesh-2x2")
        b = topology_from_name("mesh-2x2")
        assert a.cache_token() == b.cache_token()


class TestParseQuery:
    def test_defaults(self):
        spec = parse_query({})
        assert spec == QuerySpec()

    def test_scalars_promote_to_tuples(self):
        spec = parse_query(
            {"topologies": "mesh-2x2", "flit_widths": 32, "buffer_depths": [4]}
        )
        assert spec.topologies == ("mesh-2x2",)
        assert spec.flit_widths == (32,)

    def test_unknown_fields_rejected_by_name(self):
        with pytest.raises(QueryError, match="min_freq"):
            parse_query({"min_freq": 800})

    def test_non_object_rejected(self):
        with pytest.raises(QueryError, match="JSON object"):
            parse_query([1, 2])

    @pytest.mark.parametrize(
        "doc",
        [
            {"objective": "speed"},
            {"core_graph": "nope"},
            {"topologies": []},
            {"topologies": ["blob-2"]},
            {"flit_widths": []},
            # malformed values: the evaluators' own bounds and types
            {"flit_widths": [0]},
            {"flit_widths": ["a"]},
            {"flit_widths": [True]},
            {"flit_widths": [[16]]},
            {"buffer_depths": [-1]},
            {"buffer_depths": [1]},
            {"seed": "x"},
            {"anneal_iterations": 1.5},
            {"max_radix": None},
            {"target_freq_mhz": "fast"},
            {"min_freq_mhz": float("nan")},
            {"max_area_mm2": "1"},
            {"max_power_mw": False},
            # bounds: each used to pass and fail in the farm, or later
            {"max_radix": 0},
            {"max_radix": -3},
            {"max_radix": 16},
            {"target_freq_mhz": 0},
            {"target_freq_mhz": -100},
            {"anneal_iterations": -5},
        ],
    )
    def test_invalid_specs_rejected(self, doc):
        with pytest.raises(QueryError):
            parse_query(doc)

    def test_points_per_query_limit(self):
        assert MAX_QUERY_POINTS == 4096
        at = dict(flit_widths=list(range(4, 68)), buffer_depths=list(range(2, 66)))
        assert len(parse_query(at).flit_widths) * len(at["buffer_depths"]) == 4096
        with pytest.raises(QueryError, match="4160 points.*4096-point limit"):
            parse_query(dict(at, flit_widths=list(range(4, 69))))
        # Refused on the count alone: none of the names is looked at.
        with pytest.raises(QueryError, match="point limit"):
            parse_query({"topologies": ["mesh-1000x1000"] * 4097})

    def test_unhashable_topology_name_is_named(self):
        with pytest.raises(
            QueryError, match=r"topologies\[0\]: expected str, got \['mesh-2x2'\]"
        ):
            parse_query({"topologies": [["mesh-2x2"]]})

    def test_the_radix_bound_is_what_a_route_hop_can_name(self):
        from repro.core.config import NocParameters

        top = NocParameters().max_radix
        assert parse_query({"max_radix": top}).max_radix == top
        with pytest.raises(QueryError, match="max_radix"):
            parse_query({"max_radix": top + 1})

    def test_one_spelling_one_key(self, tmp_path):
        """An int-spelled float field decodes to the float, so the same
        question keys (and is stored) once."""
        engine = QueryEngine(ResultStore(tmp_path / "store"), workers=1)
        spec = parse_query({"target_freq_mhz": 1000})
        assert type(spec.target_freq_mhz) is float
        assert engine.keys(spec) == engine.keys(parse_query({}))
        assert engine.keys(spec) == engine.keys(
            parse_query({"target_freq_mhz": 1000.0}))

    def test_constraint_filter(self):
        spec = parse_query({"min_freq_mhz": 800, "max_area_mm2": 1.0})
        p = _point(freq_mhz=900.0, area_mm2=0.5)
        assert spec.meets_constraints(p)
        assert not spec.meets_constraints(_point(freq_mhz=700.0))
        assert not spec.meets_constraints(_point(area_mm2=2.0))
        assert not spec.meets_constraints(_point(feasible=False))


class TestQueryEngine:
    def test_keys_match_explore_design_space(self, tmp_path):
        """The service's whole correctness story: a sweep's records
        answer the equivalent query with zero recomputation."""
        store = ResultStore(tmp_path / "store")
        from repro.flow.runner import ExperimentRunner

        runner = ExperimentRunner(store=store)
        cg = demo_multimedia_soc()[2]
        serial = explore_design_space(
            cg, [mesh(2, 2)], flit_widths=(16,), buffer_depths=(4,),
            anneal_iterations=50, runner=runner,
        )
        engine = QueryEngine(store, workers=1)
        result = engine.query(QuerySpec(**FAST))
        assert result.served_from == "store" and result.store_misses == 0
        assert result.points == serial

    def test_miss_is_computed_then_hits(self, tmp_path):
        engine = QueryEngine(ResultStore(tmp_path / "store"), workers=1)
        spec = QuerySpec(seed=3, **FAST)
        with pytest.raises(QueryError, match="not in the store"):
            engine.query(spec, evaluate=False)
        first = engine.query(spec)
        assert first.served_from == "farm" and first.store_misses == 1
        second = engine.query(spec)
        assert second.served_from == "store" and second.store_hits == 1
        assert second.points == first.points

    def test_objective_and_constraints_pick_best(self, tmp_path):
        engine = QueryEngine(ResultStore(tmp_path / "store"), workers=1)
        spec = QuerySpec(
            topologies=("mesh-2x2",), flit_widths=(16, 64),
            buffer_depths=(4,), anneal_iterations=50, objective="latency",
        )
        result = engine.query(spec)
        assert result.best is not None
        assert result.best.latency_ns == min(
            p.latency_ns for p in result.points if p.feasible
        )
        # Impossible constraint: points exist, none qualify.
        strict = QuerySpec(
            topologies=("mesh-2x2",), flit_widths=(16, 64),
            buffer_depths=(4,), anneal_iterations=50, min_freq_mhz=1e9,
        )
        assert engine.query(strict).best is None

    def test_result_serializes_and_renders(self, tmp_path):
        engine = QueryEngine(ResultStore(tmp_path / "store"), workers=1)
        result = engine.query(QuerySpec(**FAST))
        doc = json.loads(json.dumps(result.as_dict()))
        assert doc["served_from"] == "farm"
        assert doc["best"]["topology_name"] == "mesh2x2"
        text = result.render()
        assert "best (area)" in text and "miss(es)" in text

    def test_metrics_mirrored(self, tmp_path):
        metrics = MetricsRegistry()
        store = ResultStore(tmp_path / "store", metrics=metrics)
        engine = QueryEngine(store, workers=1, metrics=metrics)
        engine.query(QuerySpec(**FAST))
        engine.query(QuerySpec(**FAST))
        prom = metrics.to_prometheus(prefix="repro")
        assert "repro_serve_queries 2" in prom
        assert "repro_serve_query_store_hits 1" in prom
        assert "repro_serve_farm_queries 1" in prom


@pytest.fixture()
def live_server(tmp_path, request):
    """The real asyncio server on a private loop thread, port 0.
    ``@pytest.mark.parametrize("live_server", [N], indirect=True)``
    sets the farm width (default 1: misses computed inline)."""
    metrics = MetricsRegistry()
    store = ResultStore(tmp_path / "store", metrics=metrics)
    workers = getattr(request, "param", 1)
    engine = QueryEngine(store, workers=workers, metrics=metrics)
    server = QueryServer(engine, port=0, max_inflight=1)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    host, port = asyncio.run_coroutine_threadsafe(
        server.start(), loop
    ).result(10)
    yield server, f"http://{host}:{port}"
    asyncio.run_coroutine_threadsafe(server.close(), loop).result(10)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(5)
    loop.close()
    engine.close()


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=30) as r:
            return r.status, json.loads(r.read().decode())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read().decode())


def _post(url, doc):
    req = urllib.request.Request(
        url, data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as r:
            return r.status, json.loads(r.read().decode())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read().decode())


def _req(url, data=None, method=None, raw=None):
    """Like _get/_post but also returns the response headers."""
    body = raw if raw is not None else (
        json.dumps(data).encode() if data is not None else None
    )
    req = urllib.request.Request(
        url, data=body, method=method,
        headers={"Content-Type": "application/json"} if body else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as r:
            return r.status, dict(r.headers), json.loads(r.read().decode())
    except urllib.error.HTTPError as e:
        return e.code, dict(e.headers), json.loads(e.read().decode())


#: The one JSON shape every HTTP error answers with.
ERROR_KEYS = {"error", "detail", "retryable"}


class TestHttp:
    def test_healthz(self, live_server):
        _, base = live_server
        status, doc = _get(base + "/healthz")
        assert status == 200 and doc["status"] == "ok"
        assert doc["records"] == 0 and doc["inflight"] == 0

    def test_index_lists_endpoints(self, live_server):
        _, base = live_server
        status, doc = _get(base + "/")
        assert status == 200 and "POST /query" in doc["endpoints"]

    def test_unknown_route_404(self, live_server):
        _, base = live_server
        status, doc = _get(base + "/nope")
        assert status == 404 and doc["error"] == "not_found"
        assert "no route" in doc["detail"]

    def test_bad_query_400(self, live_server):
        _, base = live_server
        status, doc = _post(base + "/query", {"objective": "speed"})
        assert status == 400 and doc["error"] == "bad_request"
        assert "objective" in doc["detail"]

    def test_miss_then_hit_round_trip(self, live_server):
        server, base = live_server
        q = dict(FAST, topologies=["mesh-2x2"], flit_widths=[16],
                 buffer_depths=[4], wait=True)
        status, doc = _post(base + "/query", q)
        assert status == 200 and doc["served_from"] == "farm"
        q.pop("wait")
        status, doc = _post(base + "/query", q)
        assert status == 200 and doc["served_from"] == "store"
        assert doc["store_misses"] == 0
        assert len(server.engine.store) == 1

    def _job_events(self, base):
        """Run one background miss to completion; its event trail."""
        q = dict(FAST, topologies=["mesh-2x2"], flit_widths=[16],
                 buffer_depths=[4], seed=5)
        status, doc = _post(base + "/query", q)
        assert status == 202 and doc["status"] == "running"
        job = doc["job"]
        deadline = 60
        import time

        while deadline > 0:
            status, jd = _get(base + f"/jobs/{job}")
            if jd["status"] != "running":
                break
            time.sleep(0.1)
            deadline -= 0.1
        assert jd["status"] == "done"
        assert jd["result"]["served_from"] == "farm"
        status, ev = _get(base + f"/jobs/{job}/events?since=0")
        return job, ev

    def test_async_job_streams_events(self, live_server):
        _, base = live_server
        job, ev = self._job_events(base)
        kinds = [e["event"] for e in ev["events"]]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert "point_end" in kinds
        # Incremental tailing.
        status, tail = _get(base + f"/jobs/{job}/events?since={ev['next']}")
        assert tail["events"] == []

    @pytest.mark.parametrize("live_server", [1, 2], indirect=True)
    def test_run_start_reports_the_pool_width_used(self, live_server):
        server, base = live_server
        _, ev = self._job_events(base)
        assert ev["events"][0]["event"] == "run_start"
        assert ev["events"][0]["jobs"] == server.engine.workers

    def test_unknown_job_404(self, live_server):
        _, base = live_server
        status, doc = _get(base + "/jobs/job-9999")
        assert status == 404

    def test_admission_control_429(self, live_server):
        server, base = live_server
        server._gauge_inflight(+1)  # simulate a farm evaluation in flight
        try:
            q = dict(FAST, topologies=["mesh-2x2"], flit_widths=[16],
                     buffer_depths=[4], seed=9)
            status, headers, doc = _req(base + "/query", data=q)
            assert status == 429 and doc["error"] == "farm_full"
            assert "retry later" in doc["detail"]
            assert doc["retryable"] is True
            assert headers.get("Retry-After") == "1"
        finally:
            server._gauge_inflight(-1)

    def test_malformed_values_are_400_and_never_reach_the_farm(
        self, live_server
    ):
        """More malformed bodies in a row than the breaker tolerates
        farm failures: each is the client's 400, before any probe."""
        server, base = live_server
        engine = server.engine
        bodies = [
            {"flit_widths": [0]}, {"flit_widths": ["a"]},
            {"buffer_depths": [-1]}, {"seed": "x"},
        ]
        assert len(bodies) > engine.breaker.failures
        for body in bodies:
            status, doc = _post(base + "/query", dict(FAST, **body))
            assert status == 400 and doc["error"] == "bad_request", body
            assert doc["retryable"] is False
        assert engine.breaker.state == "closed"
        assert engine.breaker.consecutive_failures == 0
        assert engine.queries == 0 and not server.jobs
        assert len(engine.store) == 0
        assert engine.store.hits == engine.store.misses == 0
        assert engine.metrics.counter("serve.http_errors").value == len(bodies)

    def test_out_of_bound_settings_are_400s_and_compute_nothing(
        self, live_server
    ):
        """A max_radix of 0 or a target frequency of 0 used to reach
        the farm and fail there; now each is a 400 naming its bound."""
        server, base = live_server
        for body, bound in [
            ({"max_radix": 0}, "max_radix must be in [1, 8]"),
            ({"max_radix": 16}, "max_radix must be in [1, 8]"),
            ({"target_freq_mhz": 0}, "target_freq_mhz must be > 0"),
            ({"anneal_iterations": -5}, "anneal_iterations must be >= 0"),
            ({"core_graph": "telecom", "max_radix": 4},
             "topology 'mesh-2x2': fabric has capacity for 8 NIs at "
             "max_radix=4, need 10"),
        ]:
            status, doc = _post(base + "/query", dict(FAST, wait=True, **body))
            assert status == 400 and doc["error"] == "bad_request", body
            assert bound in doc["detail"]
        metrics = server.engine.metrics
        assert metrics.counter("serve.points_computed").value == 0
        assert server.engine.queries == 0 and len(server.engine.store) == 0

    @pytest.mark.timeout_guard(60)
    def test_oversized_requests_are_fast_400s_and_healthz_stays_live(
        self, live_server
    ):
        """One 60-byte body used to hold the event-loop thread for tens
        of seconds (``mesh-1000x1000``: 28 s to build, 100 MB of key
        text), stalling every other client.  Sizes are read off the
        name and the grid is counted before anything is built."""
        server, base = live_server
        engine = server.engine
        bodies = [
            {"topologies": ["mesh-1000x1000"]},
            {"topologies": ["ring-2000000"]},
            {"topologies": ["fully_connected-3000"]},
            {"topologies": ["mesh-2x2", "torus-40x40"]},
            {"flit_widths": list(range(4, 69)), "buffer_depths": list(range(2, 66))},
        ]
        assert len(bodies) > engine.breaker.failures
        _get(base + "/healthz")  # warm the client side

        health = []  # (status, seconds) of every concurrent probe
        done = threading.Event()

        def probe():
            while not done.is_set():
                t0 = time.perf_counter()
                status, _ = _get(base + "/healthz")
                health.append((status, time.perf_counter() - t0))

        prober = threading.Thread(target=probe, daemon=True)
        prober.start()
        try:
            for body in bodies:
                took = []
                for _ in range(3):  # best of 3: a host stall is not a hang
                    t0 = time.perf_counter()
                    status, doc = _post(base + "/query", dict(FAST, **body))
                    took.append(time.perf_counter() - t0)
                    assert status == 400 and doc["error"] == "bad_request", body
                    assert "limit" in doc["detail"] and doc["retryable"] is False
                assert min(took) < 0.1, (body, took)
        finally:
            done.set()
            prober.join(30)
        assert not prober.is_alive()
        assert health and all(status == 200 for status, _ in health)
        assert max(seconds for _, seconds in health) < 1.0
        assert engine.breaker.state == "closed"
        assert engine.breaker.consecutive_failures == 0
        assert engine.queries == 0 and not server.jobs and server.inflight == 0
        assert engine.store.hits == engine.store.misses == 0
        assert engine.metrics.counter("serve.points_computed").value == 0
        assert engine.metrics.counter("serve.http_errors").value == 3 * len(bodies)

    def test_negative_content_length_is_400(self, live_server):
        server, base = live_server
        host, port = base[len("http://"):].split(":")
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: -5\r\n\r\n"
            )
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        doc = json.loads(body)
        assert doc["error"] == "bad_request" and set(doc) == ERROR_KEYS
        assert "Content-Length" in doc["detail"]
        assert server.engine.metrics.counter("serve.http_errors").value == 1

    def test_non_boolean_wait_is_400_before_any_probe(self, live_server):
        """``bool("false")`` is True: a truthy non-boolean ``wait`` used
        to block the connection and hold an admission slot until the
        farm finished.  Only JSON booleans are accepted."""
        server, base = live_server
        engine = server.engine
        bad = ["false", "true", 0.0001, 1, 0, None, [True]]
        for value in bad:
            status, doc = _post(base + "/query", dict(FAST, wait=value))
            assert status == 400 and doc["error"] == "bad_request", value
            assert "wait" in doc["detail"] and doc["retryable"] is False
        assert engine.store.hits == engine.store.misses == 0
        assert engine.queries == 0 and len(engine.store) == 0
        assert server.inflight == 0 and not server.jobs
        assert engine.metrics.counter("serve.http_errors").value == len(bad)
        # The boolean spellings still mean what they meant.
        status, doc = _post(base + "/query", dict(FAST, wait=True))
        assert status == 200 and doc["served_from"] == "farm"
        status, doc = _post(base + "/query", dict(FAST, seed=5, wait=False))
        assert status == 202

    def test_job_subresource_errors_count_as_http_errors(self, live_server):
        _, base = live_server
        job, _ = self._job_events(base)

        def http_errors():
            with urllib.request.urlopen(base + "/metrics", timeout=30) as r:
                found = re.search(
                    r"^repro_serve_http_errors (\d+)$", r.read().decode(), re.M
                )
            return int(found.group(1)) if found else 0

        before = http_errors()
        status, doc = _get(base + f"/jobs/{job}/events?since=abc")
        assert status == 400 and doc["error"] == "bad_request"
        assert http_errors() == before + 1
        status, doc = _get(base + f"/jobs/{job}/bogus")
        assert status == 404 and doc["error"] == "not_found"
        assert http_errors() == before + 2

    def test_one_store_probe_per_request(self, live_server):
        """A covered POST reads each point of its slice once; a farmed
        one twice (the handler's probe, then the runner's own)."""
        server, base = live_server

        def gets():
            with urllib.request.urlopen(base + "/metrics", timeout=30) as r:
                text = r.read().decode()
            found = {
                name: int(value) for name, value in
                re.findall(r"^repro_store_(hits|misses) (\d+)$", text, re.M)
            }
            return found.get("hits", 0), found.get("misses", 0)

        q = dict(FAST, flit_widths=[16, 32])  # a two-point slice
        status, doc = _post(base + "/query", dict(q, wait=True))
        assert status == 200 and doc["served_from"] == "farm"
        assert gets() == (0, 2 * 2)
        status, doc = _post(base + "/query", q)
        assert status == 200 and doc["served_from"] == "store"
        assert doc["store_hits"] == 2
        assert gets() == (2, 2 * 2)
        assert server.engine.metrics.counter("serve.queries").value == 2

    def test_metrics_exposition(self, live_server):
        server, base = live_server
        _post(base + "/query", dict(FAST, wait=True))
        with urllib.request.urlopen(base + "/metrics", timeout=30) as r:
            assert r.status == 200
            assert "text/plain" in r.headers["Content-Type"]
            text = r.read().decode()
        assert "repro_serve_queries 1" in text
        assert "repro_store_puts" in text
        assert "repro_serve_inflight 0" in text

    def test_bodies_are_compact_sorted_json(self, live_server):
        """Every JSON body is the C encoder's sorted-key single line: a
        hit, a 202 job, a 400 and /healthz, each with a matching
        Content-Length; the hit is the in-process answer."""
        server, base = live_server

        def raw(path, doc=None):
            data = None if doc is None else json.dumps(doc).encode()
            req = urllib.request.Request(base + path, data=data)
            try:
                with urllib.request.urlopen(req, timeout=60) as r:
                    return r.status, r.headers, r.read()
            except urllib.error.HTTPError as e:
                return e.code, e.headers, e.read()

        _post(base + "/query", dict(FAST, wait=True))  # seed the slice
        answers = {
            "hit": raw("/query", dict(FAST)),
            "job": raw("/query", dict(FAST, seed=5)),
            "bad": raw("/query", {"flit_widths": [0]}),
            "healthz": raw("/healthz"),
        }
        assert {k: a[0] for k, a in answers.items()} == {
            "hit": 200, "job": 202, "bad": 400, "healthz": 200,
        }
        for status, headers, body in answers.values():
            doc = json.loads(body)
            assert body == (json.dumps(doc, sort_keys=True) + "\n").encode()
            assert int(headers["Content-Length"]) == len(body)
        hit = json.loads(answers["hit"][2])
        expected = server.engine.query(
            QuerySpec(**FAST), evaluate=False
        ).as_dict()
        expected = json.loads(json.dumps(expected))
        hit.pop("seconds")
        expected.pop("seconds")
        assert hit["served_from"] == "store" and hit == expected


class TestClose:
    def test_close_with_a_job_in_flight_leaves_no_task_or_worker(self, tmp_path):
        """``close()`` waits out a 202 job: no task is left pending, the
        job is done, and closing the engine then reaps every worker."""
        engine = QueryEngine(ResultStore(tmp_path / "store"), workers=2)
        server = QueryServer(engine, port=0, max_inflight=1)
        before = {c.pid for c in multiprocessing.active_children()}
        q = dict(FAST, topologies=["mesh-2x2", "ring-4"], flit_widths=[16, 32],
                 buffer_depths=[4])

        async def scenario():
            host, port = await server.start()
            status, doc = await asyncio.get_running_loop().run_in_executor(
                None, _post, f"http://{host}:{port}/query", q
            )
            assert status == 202
            await server.close()
            assert asyncio.all_tasks() == {asyncio.current_task()}
            return doc["job"]

        job = asyncio.run(scenario())
        assert server.jobs[job]["status"] == "done"
        assert server.inflight == 0
        engine.close()
        assert engine.farm_workers == 0
        assert not [c.pid for c in multiprocessing.active_children()
                    if c.pid not in before]


class TestCircuitBreaker:
    def _breaker(self, **kw):
        clock = {"now": 0.0}
        kw.setdefault("failures", 2)
        kw.setdefault("cooldown", 10.0)
        return CircuitBreaker(clock=lambda: clock["now"], **kw), clock

    def test_validation(self):
        with pytest.raises(ValueError, match="failures"):
            CircuitBreaker(failures=0)
        with pytest.raises(ValueError, match="cooldown"):
            CircuitBreaker(cooldown=0)

    def test_full_state_machine(self):
        br, clock = self._breaker()
        assert br.state == "closed" and not br.blocking() and br.allow()
        br.record_failure()
        assert br.state == "closed"  # one short of the threshold
        br.record_failure()
        assert br.state == "open" and br.opens == 1
        assert br.blocking() and not br.allow()
        clock["now"] = 10.0  # cooldown elapsed
        assert not br.blocking()
        assert br.allow() and br.state == "half-open" and br.probes == 1
        # The single probe slot is consumed; everyone else is refused.
        assert br.blocking() and not br.allow()
        br.record_failure()  # failed probe: re-open for a full cooldown
        assert br.state == "open" and br.opens == 2
        clock["now"] = 20.0
        assert br.allow()
        br.record_success()
        assert br.state == "closed" and br.closes == 1
        assert not br.blocking() and br.allow()

    def test_success_resets_the_failure_streak(self):
        br, _ = self._breaker()
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == "closed"  # streak broken, not cumulative

    def test_transitions_emit_events(self):
        from repro.telemetry.events import (
            EventCollector, install_sink, remove_sink,
        )

        br, clock = self._breaker(failures=1)
        collector = install_sink(EventCollector())
        try:
            br.record_failure()
            clock["now"] = 10.0
            assert br.allow()
            br.record_success()
        finally:
            remove_sink(collector)
        kinds = [r["event"] for r in collector.records]
        assert kinds == ["circuit_open", "circuit_close"]
        assert collector.records[0]["failures"] == 1
        assert collector.records[0]["cooldown"] == 10.0
        assert collector.records[1]["probes"] == 1

    def test_gauge_mirrors_state(self):
        metrics = MetricsRegistry()
        br = CircuitBreaker(failures=1, metrics=metrics)
        assert "repro_serve_circuit_open 0" in metrics.to_prometheus("repro")
        br.record_failure()
        assert "repro_serve_circuit_open 1" in metrics.to_prometheus("repro")
        br.record_success()
        assert "repro_serve_circuit_open 0" in metrics.to_prometheus("repro")


class TestDegradedQueries:
    def _seeded_engine(self, tmp_path, **engine_kw):
        store = ResultStore(tmp_path / "store")
        engine = QueryEngine(store, workers=1, **engine_kw)
        engine.query(QuerySpec(**FAST))  # seed the 16-bit point
        return engine

    def _superset_spec(self):
        return QuerySpec(
            topologies=("mesh-2x2",), flit_widths=(16, 64),
            buffer_depths=(4,), anneal_iterations=50,
        )

    def test_open_circuit_serves_degraded_with_hints(self, tmp_path):
        metrics = MetricsRegistry()
        engine = self._seeded_engine(tmp_path, metrics=metrics)
        for _ in range(engine.breaker.failures):
            engine.breaker.record_failure()
        assert engine.breaker.state == "open"
        result = engine.query(self._superset_spec())
        assert result.degraded is True
        assert result.served_from == "store"
        assert result.store_misses == 1 and len(result.points) == 1
        [hint] = result.hints
        assert hint["missing"]["flit_width"] == 64
        assert hint["nearest"]["flit_width"] == 16
        assert hint["nearest"]["point"]["topology_name"] == "mesh2x2"
        doc = json.loads(json.dumps(result.as_dict()))
        assert doc["degraded"] is True and len(doc["hints"]) == 1
        assert "DEGRADED" in result.render()
        assert engine.degraded_queries == 1
        assert "repro_serve_degraded_queries 1" in metrics.to_prometheus("repro")

    def test_degrade_false_raises_farm_unavailable(self, tmp_path):
        engine = self._seeded_engine(tmp_path)
        for _ in range(engine.breaker.failures):
            engine.breaker.record_failure()
        with pytest.raises(FarmUnavailable, match="circuit is open"):
            engine.query(self._superset_spec(), degrade=False)

    def test_half_open_probe_recovers_the_farm(self, tmp_path):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            failures=1, cooldown=5.0, clock=lambda: clock["now"]
        )
        store = ResultStore(tmp_path / "store")
        engine = QueryEngine(store, workers=1, breaker=breaker)
        engine.query(QuerySpec(**FAST))
        breaker.record_failure()
        assert breaker.state == "open"
        # Cooldown still running: degraded.
        degraded = engine.query(self._superset_spec())
        assert degraded.degraded is True
        # Cooldown over: the next query is the half-open probe, runs
        # the farm, and its success closes the circuit.
        clock["now"] = 6.0
        recovered = engine.query(self._superset_spec())
        assert recovered.degraded is False
        assert recovered.served_from == "farm"
        assert breaker.state == "closed" and breaker.closes == 1
        # Fully healthy again: a fresh miss goes straight to the farm.
        assert breaker.allow()

    def test_unmappable_radix_is_refused_and_never_trips_the_breaker(
        self, tmp_path
    ):
        """A ``max_radix`` whose fabric cannot take the graph's NIs used
        to parse, fail in the farm and count against the breaker: three
        such queries left the next valid one degraded with no points."""
        engine = QueryEngine(ResultStore(tmp_path / "store"), workers=1)
        unmappable = {"core_graph": "telecom", "topologies": ["mesh-2x2"],
                      "flit_widths": [16], "buffer_depths": [4],
                      "anneal_iterations": 50, "max_radix": 4}
        for _ in range(engine.breaker.failures):
            with pytest.raises(ValueError, match="8 NIs at max_radix=4, need 10"):
                engine.query(parse_query(unmappable))
        assert engine.breaker.state == "closed"
        result = engine.query(QuerySpec(**FAST))
        assert result.served_from == "farm" and result.degraded is False
        assert len(result.points) == 1
        with pytest.raises(QueryError, match=(
                r"^topology 'mesh-2x2': fabric has capacity for 8 NIs at "
                r"max_radix=4, need 10$")):
            parse_query(unmappable)

    def test_healthy_farm_path_untouched(self, tmp_path):
        engine = self._seeded_engine(tmp_path)
        result = engine.query(self._superset_spec())
        assert result.degraded is False and result.served_from == "farm"
        assert result.hints == []


class TestHttpErrorSchema:
    """Satellite: every HTTP error answers with one JSON shape."""

    def test_404_schema(self, live_server):
        _, base = live_server
        status, headers, doc = _req(base + "/nope")
        assert status == 404
        assert set(doc) == ERROR_KEYS
        assert doc["error"] == "not_found" and doc["retryable"] is False

    def test_405_schema_with_allow_header(self, live_server):
        _, base = live_server
        status, headers, doc = _req(
            base + "/healthz", raw=b"{}", method="POST"
        )
        assert status == 405
        assert set(doc) == ERROR_KEYS
        assert doc["error"] == "method_not_allowed"
        assert doc["retryable"] is False
        assert headers.get("Allow") == "GET"

    def test_bad_json_body_schema(self, live_server):
        _, base = live_server
        status, headers, doc = _req(base + "/query", raw=b"{not json")
        assert status == 400
        assert set(doc) == ERROR_KEYS
        assert doc["error"] == "bad_request"
        assert "bad JSON" in doc["detail"]

    def test_unknown_job_schema(self, live_server):
        _, base = live_server
        status, headers, doc = _req(base + "/jobs/job-9999")
        assert status == 404
        assert set(doc) == ERROR_KEYS
        assert doc["error"] == "not_found"

    def test_request_deadline_504(self, tmp_path):
        """A wedged handler answers 504 with the error schema and a
        Retry-After, instead of hanging the connection."""
        import time as _time

        store = ResultStore(tmp_path / "store")
        engine = QueryEngine(store, workers=1)
        engine.lookup = lambda spec: (_time.sleep(3), ([], []))[1]
        server = QueryServer(engine, port=0, request_timeout=0.4)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            host, port = asyncio.run_coroutine_threadsafe(
                server.start(), loop
            ).result(10)
            status, headers, doc = _req(
                f"http://{host}:{port}/query", data=dict(FAST)
            )
            assert status == 504
            assert set(doc) == ERROR_KEYS
            assert doc["error"] == "deadline" and doc["retryable"] is True
            assert "0.4" in doc["detail"]
            assert headers.get("Retry-After") == "1"
        finally:
            asyncio.run_coroutine_threadsafe(server.close(), loop).result(10)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(5)
            loop.close()

    def test_request_timeout_validation(self, tmp_path):
        engine = QueryEngine(ResultStore(tmp_path / "store"), workers=1)
        with pytest.raises(ValueError, match="request_timeout"):
            QueryServer(engine, request_timeout=0)


class TestHttpDegraded:
    def test_open_circuit_gives_200_degraded_not_5xx(self, live_server):
        server, base = live_server
        q = dict(FAST, topologies=["mesh-2x2"], flit_widths=[16],
                 buffer_depths=[4], wait=True)
        status, doc = _post(base + "/query", q)
        assert status == 200  # seeded
        breaker = server.engine.breaker
        for _ in range(breaker.failures):
            breaker.record_failure()
        assert breaker.state == "open"
        try:
            superset = dict(FAST, topologies=["mesh-2x2"],
                            flit_widths=[16, 64], buffer_depths=[4])
            status, doc = _post(base + "/query", superset)
            assert status == 200
            assert doc["degraded"] is True
            assert doc["served_from"] == "store"
            assert len(doc["hints"]) == 1
            assert doc["hints"][0]["missing"]["flit_width"] == 64
            # healthz surfaces the breaker state.
            status, health = _get(base + "/healthz")
            assert health["circuit"] == "open"
        finally:
            breaker.record_success()
        status, health = _get(base + "/healthz")
        assert health["circuit"] == "closed"


def _point(**overrides):
    from repro.flow.dse import DesignPoint

    base = dict(
        topology_name="mesh2x2", flit_width=16, buffer_depth=4,
        latency_ns=20.0, area_mm2=0.6, power_mw=130.0,
        freq_mhz=1000.0, feasible=True,
    )
    base.update(overrides)
    return DesignPoint(**base)
