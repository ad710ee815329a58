"""Property: malformed input at the service's edge is the client's
400, never a 500, a hang, or farm work.

Hypothesis feeds :func:`repro.serve.service.parse_query` arbitrary
JSON documents, and :func:`repro.serve.http._read_request` and the
whole :meth:`QueryServer.handle` arbitrary, oversized, truncated and
slow-loris byte streams.  The engine's farm is wired to fail the test
if anything reaches it.
"""

import asyncio
import dataclasses
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.serve import http
from repro.serve.http import QueryServer, _read_request
from repro.serve.service import QueryEngine, QueryError, QuerySpec, parse_query
from repro.store import ResultStore

FIELDS = [f.name for f in dataclasses.fields(QuerySpec)]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
topology_names = st.builds(
    "{}-{}".format,
    st.sampled_from(["mesh", "torus", "ring", "star", "spidergon",
                     "hypercube", "fully_connected", "fat_tree", "bus"]),
    st.from_regex(r"-?[0-9_]{0,6}(x-?[0-9]{0,4})?", fullmatch=True),
)
field_values = json_values | topology_names | st.lists(topology_names, max_size=3)
query_docs = json_values | st.dictionaries(
    st.sampled_from(FIELDS + ["wait", "extra"]), field_values, max_size=6)


@settings(max_examples=300, deadline=None)
@given(doc=query_docs)
def test_parse_query_returns_a_spec_or_raises_query_error(doc):
    try:
        spec = parse_query(doc)
    except QueryError:
        return
    assert isinstance(spec, QuerySpec)


class FakeWriter:
    def __init__(self):
        self.data = b""

    def write(self, data):
        self.data += data

    async def drain(self):
        pass

    def close(self):
        pass

    async def wait_closed(self):
        pass


def feed(data: bytes, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


VALID = (b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 35\r\n\r\n"
         b'{"topologies": ["mesh-2x2"], "wait"')

requests = st.one_of(
    st.binary(max_size=300),
    # a real request cut anywhere short of its end
    st.integers(0, len(VALID) - 1).map(lambda n: VALID[:n]),
    # heads past the stream limit, with and without a terminator
    st.integers(1, 3).map(lambda k: b"GET / HTTP/1.1\r\nX: " + b"a" * (k << 16)),
    st.integers(1, 3).map(
        lambda k: b"GET / HTTP/1.1\r\nX: " + b"a" * (k << 16) + b"\r\n\r\n"),
    # arbitrary Content-Length values against the bytes that follow
    st.builds(
        lambda length, body: (b"POST /query HTTP/1.1\r\nContent-Length: "
                              + length.encode() + b"\r\n\r\n" + body),
        st.text(alphabet="0123456789+-_ x²٣", max_size=12),
        st.binary(max_size=64),
    ),
    # a body that is JSON of any shape (nested deep enough to recurse)
    st.builds(
        lambda body: (b"POST /query HTTP/1.1\r\nContent-Length: "
                      + str(len(body)).encode() + b"\r\n\r\n" + body),
        st.one_of(
            json_values.map(lambda v: json.dumps(v).encode()),
            st.integers(1, 200_000).map(lambda n: b"[" * n),
            st.binary(max_size=64),
        ),
    ),
)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    engine = QueryEngine(
        ResultStore(tmp_path_factory.mktemp("edge") / "store"), workers=1)

    def farm(*args, **kwargs):
        raise AssertionError("a malformed request reached the farm")

    engine.answer = farm
    return QueryServer(engine, port=0)


def respond(server, data: bytes, eof: bool = True) -> int:
    """The status ``server`` answers the bytes ``data`` with."""
    writer = FakeWriter()

    async def exchange():
        await server.handle(feed(data, eof), writer)

    asyncio.run(exchange())
    return int(writer.data.split(b" ", 2)[1])


def read(data: bytes):
    async def parse():
        return await _read_request(feed(data))

    return asyncio.run(parse())


def is_a_valid_query(data: bytes) -> bool:
    """Whether ``data`` is a whole ``POST /query`` the farm should see."""
    try:
        method, path, body = read(data)
        doc = json.loads(body.decode("utf-8") or "null")
        if isinstance(doc, dict):
            doc.pop("wait", None)
        parse_query(doc)
    except (QueryError, ValueError, RecursionError):
        return False
    return (method, path) == ("POST", "/query")


@pytest.mark.timeout_guard(240.0)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=requests)
def test_malformed_requests_are_never_a_500_nor_farm_work(server, data):
    assume(not is_a_valid_query(data))
    status = respond(server, data)
    assert status != 500, data[:200]
    assert status not in (202, 429), data[:200]


@pytest.mark.timeout_guard(60.0)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(prefix=st.one_of(
    st.integers(0, len(VALID) - 1).map(lambda n: VALID[:n]),
    st.binary(max_size=40).filter(lambda b: b"\r\n\r\n" not in b)))
def test_a_slow_loris_is_cut_with_a_400(server, monkeypatch, prefix):
    monkeypatch.setattr(http, "READ_TIMEOUT", 0.05)
    assert respond(server, prefix, eof=False) == 400


@settings(max_examples=200, deadline=None)
@given(data=requests)
def test_read_request_parses_or_raises_query_error(data):
    try:
        method, path, body = read(data)
    except QueryError:
        return
    assert isinstance(method, str) and isinstance(path, str)
    assert isinstance(body, bytes)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.text(alphabet="0123456789+-_ x\t²", min_size=1,
                               max_size=8), min_size=1, max_size=3))
def test_content_length_is_one_run_of_digits(values):
    """What a strict reader (and so any proxy in front) takes as the
    body length is what the server takes, or the request is refused:
    no sign, underscore or inner space, no two different values."""
    head = b"".join(b"Content-Length: " + v.encode() + b"\r\n" for v in values)
    data = b"POST /query HTTP/1.1\r\n" + head + b"\r\n" + b"x" * 64
    strict = {v.strip(" \t") for v in values}
    agreed = all(v.isascii() and v.isdigit() for v in strict) and len(
        {int(v) for v in strict}) == 1
    try:
        _, _, body = read(data)
    except QueryError:
        assert not agreed or int(strict.pop()) > 64
        return
    assert agreed and len(body) == int(strict.pop())
