"""``python -m repro serve`` -- the asyncio HTTP front end.

A deliberately small HTTP/1.1 server on :mod:`asyncio` streams (no
framework, stdlib only) exposing the :class:`~repro.serve.QueryEngine`
over a shared :class:`~repro.store.ResultStore`:

========================  ==============================================
``GET /``                 endpoint index (curl-friendly)
``GET /healthz``          liveness + store/record/in-flight snapshot
``GET /metrics``          Prometheus text via ``MetricsRegistry.to_prometheus``
``POST /query``           a design-space query (JSON :func:`parse_query` body)
``GET /jobs/<id>``        status/result of an admitted background query
``GET /jobs/<id>/events``  that job's telemetry events (``?since=N``)
========================  ==============================================

``POST /query`` answers **pure store hits inline** -- every point read
and sha256-verified out of the store, nothing re-simulated.  A query
with missing points is **admission-controlled** into the farm: at most
``max_inflight`` evaluations run at once (the ``serve.inflight`` gauge),
beyond that the request gets ``429``.  Admitted misses either block the
request (``"wait": true``) or return ``202`` with a job id whose
progress streams from the ``repro.telemetry.events`` plane -- the job's
runner writes ``point_start``/``point_end``/``steal``/... records to a
per-job ``events.jsonl`` that ``GET /jobs/<id>/events`` tails.

Evaluations run in a thread-pool executor so the event loop stays
responsive; the blocking work inside them is the dispatcher's worker
*processes*, so the GIL is not on the critical path.

Degradation contract (docs/SERVICE.md, "Supervision & fault testing"):
every request is bounded by a **per-request deadline**
(``request_timeout``; ``504`` with ``Retry-After`` past it); the farm
path sits behind the engine's :class:`~repro.serve.CircuitBreaker`,
and while the circuit is open a ``POST /query`` with missing points is
answered **degraded** -- ``200`` built from pure store hits with
``"degraded": true`` and nearest-cached-neighbor hints -- instead of a
5xx.  Every error body uses one schema: ``{"error": <slug>, "detail":
<human text>, "retryable": <bool>}``, with ``429`` / ``504`` carrying
``Retry-After``.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import signal
from typing import Any, Dict, Optional, Tuple

from repro.serve.service import (
    MAX_BODY_BYTES,
    QueryEngine,
    QueryError,
    parse_query,
)
from repro.telemetry.events import EVENTS_BASENAME

#: Methods each fixed route answers; anything else on these paths is a
#: ``405`` with an ``Allow`` header (``/jobs/...`` is GET-only).
_ROUTES = {
    "/": ("GET",),
    "/index": ("GET",),
    "/healthz": ("GET",),
    "/metrics": ("GET",),
    "/query": ("POST",),
}

#: Seconds a client gets to deliver a request's head, and then its
#: body: a slow-loris connection is cut at this, with a 400.
READ_TIMEOUT = 10.0

_INDEX = {
    "service": "repro design-space query service",
    "endpoints": {
        "GET /healthz": "liveness and store snapshot",
        "GET /metrics": "Prometheus metrics",
        "POST /query": "design-space query; add \"wait\": true to block on misses",
        "GET /jobs/<id>": "background query status and result",
        "GET /jobs/<id>/events?since=N": "telemetry events for a background query",
    },
}


class QueryServer:
    """One engine, one store, many HTTP clients."""

    def __init__(
        self,
        engine: QueryEngine,
        host: str = "127.0.0.1",
        port: int = 8787,
        max_inflight: int = 2,
        jobs_dir: Optional[str] = None,
        request_timeout: Optional[float] = 120.0,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be positive seconds, got {request_timeout}"
            )
        self.engine = engine
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.request_timeout = request_timeout
        self.jobs_dir = jobs_dir or os.path.join(
            os.fspath(engine.store.root), "jobs"
        )
        self.inflight = 0
        self.jobs: Dict[str, Dict[str, Any]] = {}
        self._job_seq = 0
        self._job_tasks: "set[asyncio.Task]" = set()
        self._server: Optional[asyncio.AbstractServer] = None

    # -- metrics ----------------------------------------------------------
    def _gauge_inflight(self, delta: int) -> None:
        self.inflight += delta
        if self.engine.metrics is not None:
            gauge = self.engine.metrics.gauge("serve.inflight")
            if delta > 0:
                gauge.inc(delta)
            else:
                gauge.dec(-delta)

    def _count(self, name: str) -> None:
        if self.engine.metrics is not None:
            self.engine.metrics.counter(f"serve.{name}").inc()

    # -- evaluation -------------------------------------------------------
    async def _evaluate(self, answer, events_path: Optional[str] = None):
        """Run a (possibly farm-bound) ``engine.answer`` partial off
        the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, functools.partial(answer, events_path=events_path)
        )

    def _admit(self) -> bool:
        if self.inflight >= self.max_inflight:
            self._count("rejected")
            return False
        self._gauge_inflight(+1)
        return True

    async def _run_job(self, job_id: str, answer) -> None:
        job = self.jobs[job_id]
        try:
            result = await self._evaluate(answer, events_path=job["events_path"])
            job["result"] = result.as_dict()
            job["status"] = "done"
            self._count("jobs_done")
        except Exception as exc:  # noqa: BLE001 -- job must record its fate
            job["status"] = "failed"
            job["error"] = f"{type(exc).__name__}: {exc}"
            self._count("jobs_failed")
        finally:
            self._gauge_inflight(-1)

    # -- request handling -------------------------------------------------
    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            async with asyncio.timeout(self.request_timeout):
                status, headers, body = await self._respond(reader)
        except TimeoutError:
            status, headers, body = _error_response(
                504, "deadline",
                f"request exceeded the {self.request_timeout:g}s "
                f"per-request deadline",
                retryable=True, headers={"Retry-After": "1"},
            )
            self._count("http_errors")
        except Exception as exc:  # noqa: BLE001 -- never kill the server
            status, headers, body = _error_response(
                500, "internal", f"{type(exc).__name__}: {exc}",
                retryable=False,
            )
            self._count("http_errors")
        try:
            writer.write(_render_response(status, headers, body))
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Dict[str, str], bytes]:
        try:
            method, path, body = await _read_request(reader)
        except QueryError as exc:
            self._count("http_errors")
            return _error_response(
                400, "bad_request", str(exc), retryable=False
            )
        self._count("http_requests")
        path, _, query_string = path.partition("?")

        if method == "GET" and path in ("/", "/index"):
            return _json_response(200, _INDEX)
        if method == "GET" and path == "/healthz":
            return _json_response(200, self._healthz())
        if method == "GET" and path == "/metrics":
            return self._metrics()
        if method == "POST" and path == "/query":
            return await self._query(body)
        if method == "GET" and path.startswith("/jobs/"):
            return self._job(path[len("/jobs/"):], query_string)
        self._count("http_errors")
        allowed = _ROUTES.get(path)
        if allowed is None and path.startswith("/jobs/"):
            allowed = ("GET",)
        if allowed is not None and method not in allowed:
            return _error_response(
                405, "method_not_allowed",
                f"{method} not allowed on {path} (allow: "
                f"{', '.join(allowed)})",
                retryable=False, headers={"Allow": ", ".join(allowed)},
            )
        return _error_response(
            404, "not_found", f"no route {method} {path}", retryable=False
        )

    def _healthz(self) -> Dict[str, Any]:
        breaker = self.engine.breaker
        return {
            "status": "ok",
            "store": os.fspath(self.engine.store.root),
            "records": len(self.engine.store),
            "inflight": self.inflight,
            "max_inflight": self.max_inflight,
            "queries": self.engine.queries,
            "jobs": len(self.jobs),
            "farm_workers": self.engine.farm_workers,
            "circuit": "absent" if breaker is None else breaker.state,
        }

    def _metrics(self) -> Tuple[int, Dict[str, str], bytes]:
        if self.engine.metrics is None:
            return _json_response(200, {"error": "metrics disabled"})
        text = self.engine.metrics.to_prometheus(prefix="repro")
        return (
            200,
            {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
            text.encode("utf-8"),
        )

    def _probe(self, doc: Any):
        """Parse, then the one store probe of this request (the
        admission decision and the answer both work from it).  Run off
        the event loop as one hop: validating a topology name not met
        before builds it -- bounded by the request limits, but
        milliseconds each for up to thousands of names -- and the loop
        must keep answering ``/healthz`` and firing deadlines meanwhile."""
        spec = parse_query(doc)
        return (spec, *self.engine.lookup(spec))

    async def _query(self, body: bytes) -> Tuple[int, Dict[str, str], bytes]:
        try:
            doc = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nesting deeper than the parser's stack.
            self._count("http_errors")
            return _error_response(
                400, "bad_request", f"bad JSON body: {exc}", retryable=False
            )
        wait = False
        if isinstance(doc, dict):
            doc = dict(doc)
            wait = doc.pop("wait", False)
        try:
            if not isinstance(wait, bool):
                # bool("false") and bool(0.0001) are True: a truthy
                # non-boolean would block the connection on the farm.
                raise QueryError(f"wait must be true or false, got {wait!r}")
            spec, points, missing = await asyncio.get_running_loop().run_in_executor(
                None, self._probe, doc
            )
            answer = functools.partial(self.engine.answer, spec, points, missing)
            if not missing:
                # Pure store hit: selection only, no admission needed.
                return _json_response(200, answer().as_dict())
            breaker = self.engine.breaker
            if breaker is not None and breaker.blocking():
                # Farm circuit open: a degraded store-only answer (the
                # engine adds nearest-neighbor hints), not a 5xx -- and
                # no admission slot burned on a farm that is down.
                return _json_response(
                    200, (await self._evaluate(answer)).as_dict()
                )
        except QueryError as exc:
            self._count("http_errors")
            return _error_response(
                400, "bad_request", str(exc), retryable=False
            )

        if not self._admit():
            return _error_response(
                429, "farm_full",
                f"farm is full ({self.inflight} in flight, "
                f"max {self.max_inflight}); retry later",
                retryable=True, headers={"Retry-After": "1"},
            )
        if wait:
            try:
                result = await self._evaluate(answer)
            except Exception as exc:  # noqa: BLE001 -- report, don't die
                self._count("http_errors")
                return _error_response(
                    500, "farm_error", f"{type(exc).__name__}: {exc}",
                    retryable=True,
                )
            finally:
                self._gauge_inflight(-1)
            return _json_response(200, result.as_dict())

        self._job_seq += 1
        job_id = f"job-{self._job_seq:04d}"
        job_dir = os.path.join(self.jobs_dir, job_id)
        os.makedirs(job_dir, exist_ok=True)
        self.jobs[job_id] = {
            "status": "running",
            "missing": len(missing),
            "events_path": os.path.join(job_dir, EVENTS_BASENAME),
        }
        self._count("jobs_started")
        task = asyncio.get_running_loop().create_task(self._run_job(job_id, answer))
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)
        return _json_response(202, {
            "job": job_id,
            "status": "running",
            "missing": len(missing),
            "status_url": f"/jobs/{job_id}",
            "events_url": f"/jobs/{job_id}/events",
        })

    def _job(
        self, rest: str, query_string: str
    ) -> Tuple[int, Dict[str, str], bytes]:
        job_id, _, tail = rest.partition("/")
        job = self.jobs.get(job_id)
        if job is None:
            self._count("http_errors")
            return _error_response(
                404, "not_found", f"no job {job_id!r}", retryable=False
            )
        if tail == "events":
            since = 0
            for part in query_string.split("&"):
                if part.startswith("since="):
                    try:
                        since = max(0, int(part[len("since="):]))
                    except ValueError:
                        self._count("http_errors")
                        return _error_response(
                            400, "bad_request",
                            f"bad since in {query_string!r}",
                            retryable=False,
                        )
            events = _tail_events(job["events_path"], since)
            return _json_response(200, {
                "job": job_id,
                "status": job["status"],
                "events": events,
                "next": since + len(events),
            })
        if tail:
            self._count("http_errors")
            return _error_response(
                404, "not_found", f"no job endpoint {tail!r}", retryable=False
            )
        doc = {"job": job_id, "status": job["status"],
               "missing": job["missing"]}
        if "result" in job:
            doc["result"] = job["result"]
        if "error" in job:
            doc["error"] = job["error"]
        return _json_response(200, doc)

    # -- lifecycle --------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self.handle, self.host, self.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        self.port = port
        return host, port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, then wait for every background job started
        here: a job's evaluation runs in an executor thread that no
        cancel can stop, so it is let finish and hand its farm back."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._job_tasks:
            await asyncio.gather(*self._job_tasks, return_exceptions=True)


def _tail_events(path: str, since: int) -> list:
    """Records ``[since:]`` of a job's events.jsonl; torn tails are the
    writer still mid-line and are simply not returned yet."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return []
    events = []
    for line in lines[since:]:
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            break
    return events


async def _read_request(
    reader: asyncio.StreamReader
) -> Tuple[str, str, bytes]:
    """Parse one HTTP/1.1 request: ``(method, path, body)``."""
    try:
        async with asyncio.timeout(READ_TIMEOUT):
            head = await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
            TimeoutError) as exc:
        raise QueryError(f"malformed request head: {type(exc).__name__}")
    request_line, *header_lines = head.decode("latin-1").split("\r\n")
    parts = request_line.split()
    if len(parts) != 3:
        raise QueryError(f"malformed request line {request_line!r}")
    method, path, _version = parts
    lengths = set()
    for line in header_lines:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            # 1*DIGIT only: int() would also take "+5", "1_0" and " 5 ".
            value = value.strip(" \t")
            if not (value.isascii() and value.isdigit()):
                raise QueryError(f"bad Content-Length {value!r}")
            lengths.add(int(value))
    if len(lengths) > 1:
        raise QueryError(f"conflicting Content-Length headers {sorted(lengths)}")
    length = lengths.pop() if lengths else 0
    if length > MAX_BODY_BYTES:
        raise QueryError(f"body of {length} bytes exceeds the 8 MiB limit")
    body = b""
    if length:
        try:
            async with asyncio.timeout(READ_TIMEOUT):
                body = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, TimeoutError) as exc:
            raise QueryError(f"truncated body: {type(exc).__name__}")
    return method.upper(), path, body


_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _json_response(
    status: int, doc: Any
) -> Tuple[int, Dict[str, str], bytes]:
    # No indent: that would force the stdlib's pure-Python encoder.
    body = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
    return status, {"Content-Type": "application/json; charset=utf-8"}, body


def _error_response(
    status: int,
    error: str,
    detail: str,
    retryable: bool,
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Dict[str, str], bytes]:
    """Every error body, one schema: ``{"error": <short slug>,
    "detail": <human-readable text>, "retryable": <bool>}``.  Clients
    branch on ``error``/``retryable``, humans read ``detail``."""
    status, base_headers, body = _json_response(
        status, {"error": error, "detail": detail, "retryable": retryable}
    )
    if headers:
        base_headers.update(headers)
    return status, base_headers, body


def _render_response(
    status: int, headers: Dict[str, str], body: bytes
) -> bytes:
    lines = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}"]
    headers = dict(headers)
    headers.setdefault("Content-Length", str(len(body)))
    headers.setdefault("Connection", "close")
    lines.extend(f"{k}: {v}" for k, v in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def _amain(server: QueryServer) -> None:
    """Serve until cancelled or signalled.  SIGTERM / SIGINT stop the
    accept loop; every way out closes the engine, so no kept worker
    outlives the server (SIGKILL leaves that to the workers' own
    orphan check, :func:`repro.flow.pool._worker_main`)."""
    host, port = await server.start()
    print(f"serving on http://{host}:{port}", flush=True)
    print(f"store: {os.fspath(server.engine.store.root)} "
          f"({len(server.engine.store)} records), "
          f"workers={server.engine.workers}, "
          f"max_inflight={server.max_inflight}", flush=True)
    loop = asyncio.get_running_loop()
    serving = loop.create_task(server.serve_forever())
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, serving.cancel)
    try:
        await serving
    except asyncio.CancelledError:
        print("shutting down", flush=True)
    finally:
        # Evaluations still in the executor hand their farm back as
        # they finish: wait for them (background jobs included), then
        # reap.
        await server.close()
        await loop.shutdown_default_executor()
        server.engine.close()


def serve_main(
    store: str = ".repro-store",
    host: str = "127.0.0.1",
    port: int = 8787,
    workers: int = 2,
    max_inflight: int = 2,
    request_timeout: float = 120.0,
) -> int:
    """``python -m repro serve``: a :class:`QueryServer` over the result
    store at ``store`` (``request_timeout`` 0 disables the deadline),
    served until SIGTERM, SIGINT or cancellation; returns exit code 0."""
    from repro.store import ResultStore
    from repro.telemetry.registry import MetricsRegistry

    metrics = MetricsRegistry()
    engine = QueryEngine(
        ResultStore(store, metrics=metrics), workers=workers, metrics=metrics
    )
    asyncio.run(_amain(QueryServer(
        engine, host=host, port=port, max_inflight=max_inflight,
        request_timeout=request_timeout or None,
    )))
    return 0
